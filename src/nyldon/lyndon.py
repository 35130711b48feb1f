"""Classical Lyndon machinery: membership, factorization, enumeration.

A Lyndon word is a primitive word that is lexicographically minimal
among its rotations.  Every nonempty word is a unique nonincreasing
concatenation of Lyndon words (Chen-Fox-Lyndon); Duval's algorithm
computes that factorization in linear time, and membership and the
Lyndon conjugate are both read off it.
"""

from __future__ import annotations

from .words import Alphabet, Word, is_primitive


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


def enumerate_lyndon(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All Lyndon words of length 1..max_len, shortest first,
    lexicographic within each length.

    Plain filter over all words; the enumeration bound keeps this at
    desk scale and mirrors the Nyldon enumeration path exactly.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    return [w for w in alphabet.words_upto(max_len) if is_lyndon(w)]
