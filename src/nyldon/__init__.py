"""Lyndon and Nyldon words: factorizations, conjugacy, eliminations, codes."""

from .words import Alphabet, Word, format_factorization, is_primitive
from .lyndon import enumerate_lyndon, is_lyndon, lyndon_conjugate, lyndon_factorize
from .factorization import (
    enumerate_nyldon,
    is_nyldon,
    longest_nyldon_suffix,
    nyldon_factorize,
    standard_factorization,
)
from .conjugacy import (
    melancon_nyldon_conjugate,
    nyldon_conjugate_bruteforce,
)
from .lazard import (
    LazardStep,
    LazardTrace,
    lazard_eliminated,
    lazard_run,
    lazard_stepcount_nyldon,
)
from .codes import (
    CodeVerdict,
    in_code_star,
    is_circular_bounded,
    is_comma_free_uniform,
    nyldon_code,
    nyldon_comma_free_classification,
    nyldon_comma_free_verdict,
)
from .oracle import (
    apply_permutation,
    count_by_length,
    counting_bijection,
    enumerate_by_filter,
    exhaustive_factorizations,
    forbidden_prefix_family,
    is_comma_free_definitional,
    is_forbidden_prefix_upto,
    necklace_count,
    nyldon_comma_free_table,
    recursive_is_lyndon,
    recursive_is_nyldon,
    reverse_permutation,
    rotations,
)
