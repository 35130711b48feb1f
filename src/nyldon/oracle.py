"""Independent brute-force references for the production algorithms.

Everything here recomputes from first principles what lyndon.py,
factorization.py and codes.py compute by algorithm: membership straight
from the recursive definitions, factorizations by exhaustive search
over split points, the two enumerations by filtering all k**n words,
the classical aperiodic necklace formula for the per-length counts, the
rank-matching bijection between non-Lyndon and non-Nyldon words of a
fixed length, forbidden prefixes by trying every extension, and
comma-freeness by cutting every short message.  Tests pit the two sides
against each other.  The CLI also uses three functions from here:
count_by_length for `count` (the sizes of the generators' length
groups), necklace_count for `count --check-formula`, and
counting_bijection for `bijection`, which ranks the generators' groups
and maps every word of the given length.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from typing import Callable, Iterable

from .codes import CodeVerdict, _uniform, in_code_star
from .factorization import _nyldon_by_length, is_nyldon
from .lyndon import _lyndon_by_length, is_lyndon, lyndon_factorize
from .words import Alphabet, Word, _refuse_past

# the most words of length <= n counting_bijection takes on (it maps those of
# length n and ranks the shorter ones); the largest accepted `bijection` takes about 2 s
BIJECTION_BUDGET = 2 ** 17


def _has_monotone_split(w: Word, member: Callable[[Word], bool], nondecreasing: bool) -> bool:
    """Does w factor into >= 2 member words whose sequence is
    nondecreasing (or nonincreasing)?  All factors of such a split are
    automatically shorter than w.  Memoized on (position, previous
    factor), where the previous factor is always the adjacent w[a:i]."""
    n = len(w)
    memo: dict[tuple[int, int], bool] = {}

    def tail_ok(i: int, a: int) -> bool:
        # can w[i:] be cut into >= 1 member words, the first comparing
        # against the previous factor w[a:i], each next against its own
        # predecessor?
        if (i, a) in memo:
            return memo[i, a]
        prev = w[a:i]
        ok = False
        for j in range(i + 1, n + 1):
            f = w[i:j]
            ordered = prev <= f if nondecreasing else f <= prev
            if ordered and member(f) and (j == n or tail_ok(j, i)):
                ok = True
                break
        memo[i, a] = ok
        return ok

    return any(member(w[:j]) and tail_ok(j, 0) for j in range(1, n))


@lru_cache(maxsize=None)
def recursive_is_nyldon(w: Word) -> bool:
    """Nyldon membership straight from the recursive definition: letters
    are Nyldon, and a longer word is Nyldon iff it admits no
    factorization into two or more shorter Nyldon words in nondecreasing
    order.  Costly; intended for short words."""
    if not w:
        raise ValueError("the empty word is not eligible")
    if len(w) == 1:
        return True
    return not _has_monotone_split(w, recursive_is_nyldon, nondecreasing=True)


@lru_cache(maxsize=None)
def recursive_is_lyndon(w: Word) -> bool:
    """Lyndon membership from the mirror recursion: letters are Lyndon,
    and a longer word is Lyndon iff it admits no factorization into two
    or more shorter Lyndon words in nonincreasing order."""
    if not w:
        raise ValueError("the empty word is not eligible")
    if len(w) == 1:
        return True
    return not _has_monotone_split(w, recursive_is_lyndon, nondecreasing=False)


_MEMBERS = {"lyndon": recursive_is_lyndon, "nyldon": recursive_is_nyldon}


def exhaustive_factorizations(
    w: Word, family: str, monotonicity: str, max_len: int = 10
) -> list[tuple[Word, ...]]:
    """Every factorization of w into family members satisfying the
    monotonicity, found by exhaustive search over all split points.

    family is "lyndon" or "nyldon"; monotonicity is "nonincreasing" or
    "nondecreasing".  Membership uses the recursive definitions above,
    so the search is independent of the production factorizers whose
    uniqueness claims it checks.
    """
    if not w:
        raise ValueError("cannot factorize the empty word")
    if len(w) > max_len:
        raise ValueError(f"length {len(w)} exceeds the search bound {max_len}")
    member = _MEMBERS[family]
    if monotonicity == "nondecreasing":
        ordered = lambda prev, f: prev <= f
    elif monotonicity == "nonincreasing":
        ordered = lambda prev, f: f <= prev
    else:
        raise ValueError(f"unknown monotonicity {monotonicity!r}")

    results: list[tuple[Word, ...]] = []
    partial: list[Word] = []

    def extend(i: int) -> None:
        if i == len(w):
            results.append(tuple(partial))
            return
        for j in range(i + 1, len(w) + 1):
            f = w[i:j]
            if (not partial or ordered(partial[-1], f)) and member(f):
                partial.append(f)
                extend(j)
                partial.pop()

    extend(0)
    return results


def _moebius(n: int) -> int:
    """mu(n) by trial division; n stays tiny here."""
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def necklace_count(k: int, n: int) -> int:
    """Number of aperiodic necklaces of length n over k letters:
    (1/n) * sum of mu(d) * k**(n/d) over the divisors d of n.

    The classical Witt/Moreau count.  It is deliberately an outside
    oracle: the per-length Lyndon and Nyldon counts computed by
    enumeration are checked against it, but nothing in the package
    derives from it.
    """
    total = sum(_moebius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise AssertionError(f"necklace sum {total} for k={k}, n={n} is not a multiple of n")
    return total // n


def enumerate_by_filter(family: str, alphabet: Alphabet, max_len: int) -> list[Word]:
    """The family's words of length 1..max_len, shortest first and
    lexicographic within each length, by testing every one of the
    k + k**2 + ... + k**max_len words for membership.

    The reference for the generators behind enumerate_lyndon and
    enumerate_nyldon, which build their words without a membership test.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    member = {"lyndon": is_lyndon, "nyldon": is_nyldon}[family]
    return [w for w in alphabet.words_upto(max_len) if member(w)]


def count_by_length(family: str, alphabet: Alphabet, n_max: int) -> list[int]:
    """Per-length counts of the family's words over the alphabet,
    lengths 1..n_max (index 0 is length 1): the sizes of the groups the
    family's generator makes.  Raises ValueError past
    ENUMERATION_BUDGET."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    by_length = {"lyndon": _lyndon_by_length, "nyldon": _nyldon_by_length}[family]
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
    nondecreasingly and concatenate.
    The image sequence is then the unique nondecreasing Nyldon
    factorization of the result, so the image has at least two factors
    and is non-Nyldon.  Bijectivity is checked, not proved here.
    More than BIJECTION_BUDGET words of length <= n raise ValueError
    before any work starts.
    """
    if n < 2:
        raise ValueError("needs length >= 2")
    k = alphabet.size
    _refuse_past(BIJECTION_BUDGET, accumulate(k ** d for d in range(1, n + 1)),
                 f"a bijection with k={k} letters at length n={n}")
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
        if is_nyldon(image):
            raise AssertionError(f"image {image!r} of non-Lyndon {w!r} is Nyldon")
        mapping[w] = image
    if len(set(mapping.values())) != len(mapping):
        raise AssertionError(
            f"the map on length-{n} words over {k} letters is not injective"
        )
    return mapping


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


def is_comma_free_definitional(code: Iterable[Word], n: int, max_blocks: int = 3) -> CodeVerdict:
    """Comma-freeness checked directly against the definition.

    Every message of at most max_blocks codewords is cut every possible
    way into u x v with x in C+, and u, v are required to parse.  This
    is the oracle for the two-block reduction; three blocks already
    realize every straddling pattern a uniform code admits.  Cost grows
    as |C|^max_blocks.
    """
    words = _uniform(code, n)
    ordered = sorted(words)
    for blocks in range(1, max_blocks + 1):
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
