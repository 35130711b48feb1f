"""Independent brute-force references for the production algorithms.

Everything here recomputes from first principles what lyndon.py,
factorization.py and codes.py compute by algorithm: membership straight
from the recursive definitions, factorizations by exhaustive search
over split points, the two enumerations by filtering all k**n words,
the per-length counts as aperiodic necklaces by the word-count identity
k**n = sum of d * count(d) over d | n, the rank-matching bijection
between non-Lyndon and non-Nyldon words of a fixed length, forbidden
prefixes by trying every extension, comma-freeness by cutting every
short message, and conjugacy classes by listing every rotation.  It
also holds what only the tests, the demos and the benchmark's table
call: letter relabelings (apply_permutation, reverse_permutation), the
four closed-form forbidden-prefix families, and the computed comma-free
table, checked against codes' closed-form classification.  Tests pit
the two sides against each other.  The CLI also uses three functions
from here: count_by_length for `count` (the sizes of the generators'
length groups), necklace_count for `count --check-formula`, and
counting_bijection for `bijection`, which ranks the generators' groups
and maps every word of the given length.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .codes import (CodeVerdict, _uniform, in_code_star, is_comma_free_uniform, nyldon_code,
                    nyldon_comma_free_classification)
from .factorization import _nyldon_by_length, is_nyldon, nyldon_factorize
from .lyndon import _lyndon_by_length, is_lyndon, lyndon_factorize
from .words import Alphabet, Word, _refuse_past

# the most words of length <= n counting_bijection takes on (it maps those of
# length n and ranks the shorter ones); the largest accepted `bijection` takes about 2 s
BIJECTION_BUDGET = 2 ** 17

T = TypeVar("T")


def rotations(w: Word) -> list[Word]:
    """The |w| rotations w[i:] + w[:i] for i = 0..|w|-1, in that order.

    Duplicates are retained, so a non-primitive word repeats entries.
    """
    if not w:
        raise ValueError("the empty word has no rotations")
    return [w[i:] + w[:i] for i in range(len(w))]


def apply_permutation(perm: Sequence[int], w: Word) -> Word:
    """Relabel w letterwise through a bijection of range(len(perm)).

    Extends the relabeling to words as a monoid morphism:
    the image of u + v is the image of u followed by the image of v.
    """
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm!r} is not a permutation of range({k})")
    if any(not 0 <= a < k for a in w):
        raise ValueError("letter outside the permutation's domain")
    return tuple(perm[a] for a in w)


def reverse_permutation(k: int) -> tuple[int, ...]:
    """The order-reversing relabeling i -> k-1-i on range(k)."""
    return tuple(k - 1 - i for i in range(k))


def _monotone_splits(w: Word, member: Callable[[Word], bool],
                     nondecreasing: bool) -> Iterator[tuple[Word, ...]]:
    """Every factorization of w into >= 2 member words whose sequence is
    nondecreasing (or nonincreasing), lazily and in cut-point order.
    All its factors are shorter than w, so member may recurse on them.
    A state (i, a), the tail w[i:] after the factor w[a:i], that found
    nothing is never searched again, so the first split, or the word's
    lack of one, takes polynomially many states."""
    n = len(w)
    dead: set[tuple[int, int]] = set()

    def tails(i: int, a: int) -> Iterator[tuple[Word, ...]]:
        # the ordered cuts of w[i:] into member words after the factor w[a:i]
        prev, found = w[a:i], False
        for j in range(i + 1, n + 1):
            f = w[i:j]
            if not (prev <= f if nondecreasing else f <= prev):
                if prev[:j - i] != f:  # then every longer f is out of order too
                    break
            elif member(f):
                if j == n:
                    found = True
                    yield (f,)
                elif (j, i) not in dead:
                    for rest in tails(j, i):
                        found = True
                        yield (f, *rest)
        if not found:
            dead.add((i, a))

    for j in range(1, n):
        if member(w[:j]):
            for rest in tails(j, 0):
                yield (w[:j], *rest)


def _recursive_member(w: Word, member: Callable[[Word], bool], nondecreasing: bool) -> bool:
    """Membership by the recursion both families share: no split into
    shorter members in the family's order (a letter has none)."""
    if not w:
        raise ValueError("the empty word is not eligible")
    return not any(_monotone_splits(w, member, nondecreasing))


@lru_cache(maxsize=None)
def recursive_is_nyldon(w: Word) -> bool:
    """Nyldon membership straight from the recursive definition: letters
    are Nyldon, and a longer word is Nyldon iff it admits no
    factorization into two or more shorter Nyldon words in nondecreasing
    order.  Costly; intended for short words."""
    return _recursive_member(w, recursive_is_nyldon, nondecreasing=True)


@lru_cache(maxsize=None)
def recursive_is_lyndon(w: Word) -> bool:
    """Lyndon membership from the mirror recursion: letters are Lyndon,
    and a longer word is Lyndon iff it admits no factorization into two
    or more shorter Lyndon words in nonincreasing order."""
    return _recursive_member(w, recursive_is_lyndon, nondecreasing=False)


def _by_family(family: str, lyndon: T, nyldon: T) -> T:
    """lyndon or nyldon, as the family is "lyndon" or "nyldon"."""
    if family not in ("lyndon", "nyldon"):
        raise ValueError(f"family must be 'lyndon' or 'nyldon', not {family!r}")
    return lyndon if family == "lyndon" else nyldon


def exhaustive_factorizations(w: Word, family: str) -> list[tuple[Word, ...]]:
    """Every factorization of w into family members in the family's
    order, found by exhaustive search over all split points and listed
    in cut-point order.

    family is "lyndon" (factors nonincreasing) or "nyldon" (factors
    nondecreasing).  Membership uses the recursive definitions above,
    so the search is independent of the production factorizers whose
    uniqueness claims it checks.  Words of more than 10 letters are
    refused.
    """
    if not w:
        raise ValueError("cannot factorize the empty word")
    if len(w) > 10:
        raise ValueError(f"length {len(w)} exceeds the search bound 10")
    member = _by_family(family, recursive_is_lyndon, recursive_is_nyldon)
    # w is a member, hence its own one-factor factorization (the last in
    # cut-point order), iff it has no split
    return list(_monotone_splits(w, member, nondecreasing=family == "nyldon")) or [(w,)]


def necklace_count(k: int, n: int) -> int:
    """Number of aperiodic necklaces of length n over k letters.

    Each word of length m is a power of one primitive word, of a length
    d dividing m, and each aperiodic necklace of length d holds d
    primitive words: so k**m = sum of d * count(d) over d | m, solved
    for count(m) at each divisor m of n, smallest first.  The classical
    Witt/Moreau count, and deliberately an outside oracle: the per-length
    Lyndon and Nyldon counts computed by enumeration are checked against
    it, but nothing in the package derives from it.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    count: dict[int, int] = {}
    for m in (m for m in range(1, n + 1) if n % m == 0):
        # the divisors of n already counted that divide m are m's proper divisors
        primitive = k ** m - sum(d * c for d, c in count.items() if m % d == 0)
        if primitive % m:
            raise AssertionError(f"{primitive} primitive words of length {m} over {k} letters"
                                 f" is not a multiple of {m}")
        count[m] = primitive // m
    return count[n]


def enumerate_by_filter(family: str, alphabet: Alphabet, max_len: int) -> list[Word]:
    """The family's words of length 1..max_len, shortest first and
    lexicographic within each length, by testing every one of the
    k + k**2 + ... + k**max_len words for membership.

    The reference for the generators behind enumerate_lyndon and
    enumerate_nyldon, which build their words without a membership test.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    member = _by_family(family, is_lyndon, is_nyldon)
    return [w for w in alphabet.words_upto(max_len) if member(w)]


def count_by_length(family: str, alphabet: Alphabet, n_max: int) -> list[int]:
    """Per-length counts of the family's words over the alphabet,
    lengths 1..n_max (index 0 is length 1): the sizes of the groups the
    family's generator makes.  Raises ValueError for n_max < 1 or past
    ENUMERATION_BUDGET."""
    by_length = _by_family(family, _lyndon_by_length, _nyldon_by_length)
    return [len(group) for group in by_length(alphabet, n_max)[1:]]


def counting_bijection(alphabet: Alphabet, n: int) -> dict[Word, Word]:
    """A length-preserving bijection from the non-Lyndon onto the
    non-Nyldon words of length n, built by rank-matching factors.

    Rank the Lyndon words of each length d < n in DECREASING
    lexicographic order and the Nyldon words of length d in INCREASING
    lexicographic order.  A source word is non-Lyndon iff its
    nonincreasing Lyndon factorization has two or more factors.
    Replace every factor by the Nyldon word of equal length and equal
    rank (repeated factors map to repeated images), sort the images
    nondecreasingly and concatenate.  The image sequence is then the
    unique nondecreasing Nyldon factorization of the result, so the
    image has at least two factors and is non-Nyldon.  That
    factorization and bijectivity are checked, not proved here.  Keys
    come in lexicographic order, as words_of_length makes them.  More
    than BIJECTION_BUDGET words of length <= n raise ValueError up front.
    """
    k = alphabet.size
    what = f"a bijection with k={k} letters at length n={n}"
    if n < 2:
        raise ValueError(f"{what} needs n >= 2")
    _refuse_past(BIJECTION_BUDGET, accumulate(k ** d for d in range(1, n + 1)), what)
    lyndon, nyldon = _lyndon_by_length(alphabet, n - 1), _nyldon_by_length(alphabet, n - 1)
    rank_image: dict[Word, Word] = {}
    for d in range(1, n):
        # each group is lexicographic, so both come out ranked
        if len(lyndon[d]) != len(nyldon[d]):
            raise AssertionError(
                f"{len(lyndon[d])} Lyndon but {len(nyldon[d])} Nyldon words of length {d}"
                f" over {k} letters"
            )
        rank_image.update(zip(reversed(lyndon[d]), nyldon[d]))

    mapping: dict[Word, Word] = {}
    for w in alphabet.words_of_length(n):
        factors = lyndon_factorize(w)
        if len(factors) == 1:
            continue
        images = sorted(rank_image[f] for f in factors)
        image = sum(images, ())
        if nyldon_factorize(image) != tuple(images):
            raise AssertionError(f"the sorted images of the Lyndon factors of {w!r} are not"
                                 f" the Nyldon factorization of its image {image!r}")
        mapping[w] = image
    if len(set(mapping.values())) != len(mapping):
        raise AssertionError(
            f"the map on length-{n} words over {k} letters is not injective"
        )
    return mapping


def forbidden_prefix_family(k_param: int, family_index: int) -> Word:
    """A member of one of four binary families of forbidden prefixes.

    family 1:  1 0^k 1 0^k
    family 2:  1 0^k 1011
    family 3:  1 0 1^(k+1) 0 1^(k+1)
    family 4:  1 0^(k+2) 11 0^(k+1) 11

    No binary Nyldon word starts with any of these (checked empirically
    by the paired is_forbidden_prefix_upto tests; the families are
    closed-form, the evidence is bounded).
    """
    if k_param < 0:
        raise ValueError("k_param must be nonnegative")
    k = k_param
    if family_index == 1:
        return (1,) + (0,) * k + (1,) + (0,) * k
    if family_index == 2:
        return (1,) + (0,) * k + (1, 0, 1, 1)
    if family_index == 3:
        return (1, 0) + (1,) * (k + 1) + (0,) + (1,) * (k + 1)
    if family_index == 4:
        return (1,) + (0,) * (k + 2) + (1, 1) + (0,) * (k + 1) + (1, 1)
    raise ValueError("family_index must be 1, 2, 3 or 4")


def is_forbidden_prefix_upto(prefix: Word, max_len: int, alphabet: Alphabet) -> bool:
    """True iff no Nyldon word over the alphabet of length <= max_len
    starts with the given prefix.

    Bounded evidence, not a proof: only extensions up to max_len are
    examined, at a cost of O(k**(max_len - |prefix|)) membership tests.
    """
    if not prefix:
        raise ValueError("the empty prefix is never forbidden")
    if max_len < len(prefix):
        raise ValueError("max_len must be at least the prefix length")
    alphabet.validate(prefix)
    for extra in range(max_len - len(prefix) + 1):
        for tail in alphabet.words_of_length(extra):
            if is_nyldon(prefix + tail):
                return False
    return True


def is_comma_free_definitional(code: Iterable[Word], n: int) -> CodeVerdict:
    """Comma-freeness checked directly against the definition.

    Every message of at most three codewords is cut every possible way
    into u x v with x in C+, and u, v are required to parse.  This is
    the oracle for the two-block reduction; three blocks already realize
    every straddling pattern a uniform code admits, so no more are
    tried.  Cost grows as |C|^3.
    """
    words = _uniform(code, n)
    ordered = sorted(words)
    for blocks in range(1, 4):
        for msg in product(ordered, repeat=blocks):
            w = sum(msg, ())
            for a in range(len(w) + 1):
                for b in range(a + n, len(w) + 1, n):
                    x = w[a:b]
                    if not in_code_star(words, n, x):
                        continue
                    u, v = w[:a], w[b:]
                    if not (in_code_star(words, n, u) and in_code_star(words, n, v)):
                        return CodeVerdict(False, (u, x, v))
    return CodeVerdict(True)


def nyldon_comma_free_table(k_max: int, n_max: int) -> dict[tuple[int, int], bool]:
    """Computed comma-free verdicts for the codes nyldon_code(k, n),
    2 <= k <= k_max and 1 <= n <= n_max, keyed by (k, n).

    Each verdict is asserted against the closed-form classification, so
    a disagreement fails loudly instead of propagating.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    table: dict[tuple[int, int], bool] = {}
    for k in range(2, k_max + 1):
        alphabet = Alphabet(k)
        for n in range(1, n_max + 1):
            verdict = is_comma_free_uniform(nyldon_code(alphabet, n), n)
            if verdict.holds != nyldon_comma_free_classification(k, n):
                raise AssertionError(
                    f"computed comma-free verdict {verdict.holds} for k={k}, n={n}"
                    " contradicts the classification"
                )
            table[k, n] = verdict.holds
    return table
