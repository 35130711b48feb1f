"""Lyndon and Nyldon words: factorizations, conjugacy, eliminations, codes."""

from .words import (
    Alphabet,
    Word,
    apply_permutation,
    format_factorization,
    is_primitive,
    reverse_permutation,
)
from .lyndon import enumerate_lyndon, is_lyndon, lyndon_conjugate, lyndon_factorize
from .factorization import (
    enumerate_nyldon,
    forbidden_prefix_family,
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
    nyldon_comma_free_table,
)
from .oracle import (
    count_by_length,
    counting_bijection,
    enumerate_by_filter,
    exhaustive_factorizations,
    is_comma_free_definitional,
    is_forbidden_prefix_upto,
    necklace_count,
    recursive_is_lyndon,
    recursive_is_nyldon,
    rotations,
)
