"""Independent brute-force references for the production algorithms.

Everything here recomputes from first principles what lyndon.py and
factorization.py compute by algorithm: membership straight from the
recursive definitions, factorizations by exhaustive search over split
points, per-length counts cross-checked by the classical aperiodic
necklace formula, and the rank-matching bijection between non-Lyndon
and non-Nyldon words of a fixed length.  Tests pit the two sides
against each other; the production modules never call this one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .factorization import enumerate_nyldon, is_nyldon
from .lyndon import enumerate_lyndon, is_lyndon, lyndon_factorize
from .words import Alphabet, Word


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


def count_by_length(family: str, alphabet: Alphabet, n_max: int) -> list[int]:
    """Per-length counts of the family's words over the alphabet,
    lengths 1..n_max (index 0 is length 1), by plain enumeration."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    enum = {"lyndon": enumerate_lyndon, "nyldon": enumerate_nyldon}[family]
    counts = [0] * n_max
    for w in enum(alphabet, n_max):
        counts[len(w) - 1] += 1
    return counts


def counting_bijection(alphabet: Alphabet, n: int) -> dict[Word, Word]:
    """A length-preserving bijection from the non-Lyndon onto the
    non-Nyldon words of length n, built by rank-matching factors.

    Rank the Lyndon words of each length d < n in DECREASING
    lexicographic order and the Nyldon words of length d in INCREASING
    lexicographic order.  For a non-Lyndon source word: take its
    nonincreasing Lyndon factorization, replace every factor by the
    Nyldon word of equal length and equal rank (repeated factors map to
    repeated images), sort the images nondecreasingly and concatenate.
    The image sequence is then the unique nondecreasing Nyldon
    factorization of the result, so the image has at least two factors
    and is non-Nyldon.  Bijectivity is checked, not proved here.
    """
    if n < 2:
        raise ValueError("needs length >= 2")
    rank_image: dict[Word, Word] = {}
    for d in range(1, n):
        lyndon_d = sorted(
            (w for w in alphabet.words_of_length(d) if is_lyndon(w)), reverse=True
        )
        nyldon_d = sorted(w for w in alphabet.words_of_length(d) if is_nyldon(w))
        if len(lyndon_d) != len(nyldon_d):
            raise AssertionError(
                f"{len(lyndon_d)} Lyndon but {len(nyldon_d)} Nyldon words of length {d}"
                f" over {alphabet.size} letters"
            )
        rank_image.update(zip(lyndon_d, nyldon_d))

    mapping: dict[Word, Word] = {}
    for w in alphabet.words_of_length(n):
        if is_lyndon(w):
            continue
        images = sorted(rank_image[f] for f in lyndon_factorize(w))
        image = sum(images, ())
        if is_nyldon(image):
            raise AssertionError(f"image {image!r} of non-Lyndon {w!r} is Nyldon")
        mapping[w] = image
    if len(set(mapping.values())) != len(mapping):
        raise AssertionError(
            f"the map on length-{n} words over {alphabet.size} letters is not injective"
        )
    return mapping
