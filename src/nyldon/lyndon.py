"""Classical Lyndon machinery: membership, factorization, enumeration.

A Lyndon word is a primitive word that is lexicographically minimal
among its rotations.  Every nonempty word is a unique nonincreasing
concatenation of Lyndon words (Chen-Fox-Lyndon); Duval's algorithm
computes that factorization in linear time, and membership and the
Lyndon conjugate are both read off it.
"""

from __future__ import annotations

from .words import Alphabet, Word, _check_enumeration_budget, is_primitive


def is_lyndon(w: Word) -> bool:
    """True iff w is primitive and lex-minimal among its rotations.

    By Chen-Fox-Lyndon that holds exactly when the Lyndon
    factorization of w is w itself.
    """
    if not w:
        raise ValueError("the empty word is not eligible")
    return len(lyndon_factorize(w)) == 1


def lyndon_factorize(w: Word) -> tuple[Word, ...]:
    """The unique nonincreasing factorization of w into Lyndon words.

    Duval's algorithm: grow a candidate run w[i:j] whose Lyndon prefix
    period is j - k, emit copies of that prefix once the run breaks.
    Linear time, constant extra space.

    >>> lyndon_factorize((1, 0, 1, 0))
    ((1,), (0, 1), (0,))
    """
    if not w:
        raise ValueError("cannot factorize the empty word")
    n = len(w)
    factors = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        while i <= k:
            factors.append(w[i:i + j - k])
            i += j - k
    return tuple(factors)


def lyndon_conjugate(w: Word) -> Word:
    """The unique Lyndon word among the rotations of a primitive word.

    It is the factor of length |w| in the Lyndon factorization of w.w.
    With w = uv and L = vu the least rotation, w.w = u.L.v and L is one
    of its factors.  No factor is longer than |w|, since it would have
    period |w| and so be bordered, and any factor of length |w| is a
    Lyndon rotation of w, hence L.
    """
    if not is_primitive(w):
        raise ValueError("only primitive words have a Lyndon conjugate")
    n = len(w)
    return next(f for f in lyndon_factorize(w + w) if len(f) == n)


def _lyndon_by_length(alphabet: Alphabet, max_len: int) -> list[list[Word]]:
    """The Lyndon words of length 0..max_len grouped by length, each
    group in lexicographic order.

    Duval's (1988) successor step visits every Lyndon word of length
    <= max_len in lexicographic order: repeat w periodically up to
    max_len letters, drop the trailing maximal letters, and increment
    the last letter left.
    """
    _check_enumeration_budget("Lyndon", alphabet, max_len)
    top = alphabet.size - 1
    groups: list[list[Word]] = [[] for _ in range(max_len + 1)]
    w = [0]
    while w:
        groups[len(w)].append(tuple(w))
        w = (w * (max_len // len(w) + 1))[:max_len]
        while w and w[-1] == top:
            w.pop()
        if w:
            w[-1] += 1
    return groups


def enumerate_lyndon(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All Lyndon words of length 1..max_len, shortest first,
    lexicographic within each length.

    Generated in lexicographic order by Duval's successor step and
    bucketed by length; no membership test runs.  Raises ValueError
    past ENUMERATION_BUDGET.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    return [w for group in _lyndon_by_length(alphabet, max_len) for w in group]
