"""Nyldon words: factorization, membership, suffixes, enumeration.

Nyldon words mirror the recursive description of Lyndon words with the
order of the factorization reversed.  Every letter is Nyldon, and a
longer word is Nyldon exactly when it cannot be written as a
concatenation of two or more shorter Nyldon words in lexicographically
nondecreasing order.  Despite the greedy-looking definition, every
nonempty word has exactly ONE nondecreasing factorization into Nyldon
words, and a single right-to-left sweep finds it.

The binary Nyldon words up to length 5:

    0  1  10  100  101  1000  1001  1011
    10000  10001  10010  10011  10110  10111
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import NamedTuple

from .words import Alphabet, Word, _check_enumeration_budget


def nyldon_factorize(w: Word) -> tuple[Word, ...]:
    """The unique nondecreasing factorization of w into Nyldon words.

    Reads w right to left, maintaining the factorization of the suffix
    seen so far.  Each new letter is prepended as a one-letter factor;
    then, while the list has at least two factors and the head is
    lexicographically greater than its successor, the two are merged.
    Worst case O(|w|**2) letter comparisons.

    >>> nyldon_factorize((1, 0, 1, 0, 0))
    ((1, 0), (1, 0, 0))
    >>> nyldon_factorize((1, 0, 1, 1, 0, 1, 1))
    ((1, 0, 1), (1, 0, 1, 1))
    """
    if not w:
        raise ValueError("cannot factorize the empty word")
    factors: deque[Word] = deque([w[-1:]])
    for i in range(len(w) - 2, -1, -1):
        factors.appendleft(w[i:i + 1])
        while len(factors) >= 2 and factors[0] > factors[1]:
            head = factors.popleft()
            factors.appendleft(head + factors.popleft())
    return tuple(factors)


def is_nyldon(w: Word) -> bool:
    """True iff the nondecreasing Nyldon factorization of w is w itself.

    >>> is_nyldon((1, 0, 1, 1, 0))
    True
    >>> is_nyldon((1, 0, 1, 0))
    False
    """
    return len(nyldon_factorize(w)) == 1


def _nyldon_by_length(alphabet: Alphabet, max_len: int) -> list[dict[Word, Word | None]]:
    """The Nyldon words of length 0..max_len grouped by length.  Group n
    maps its words, in lexicographic order, to the right parts of their
    standard factorizations (None for a letter).

    Nyldon words form a right Lazard set, hence a Hall set: a word of
    length n >= 2 is uv with u, v Nyldon, u > v, and u a letter or
    right(u) <= v, where uv's standard factorization is u.v.  So for
    each shorter u the admissible v of length n - |u| are one
    contiguous range of the sorted group, cut out by two bisections,
    and the work follows the number of words made.
    """
    _check_enumeration_budget("Nyldon", alphabet, max_len)
    groups: list[dict[Word, Word | None]] = [{}, dict.fromkeys((a,) for a in alphabet.letters())]
    ranked: list[list[Word]] = [[], list(groups[1])]
    for n in range(2, max_len + 1):
        made: dict[Word, Word] = {}
        for i in range(1, n):
            vs = ranked[n - i]
            for u, right in groups[i].items():
                low = 0 if right is None else bisect_left(vs, right)
                for v in vs[low:bisect_left(vs, u)]:
                    made[u + v] = v
        ranked.append(sorted(made))
        groups.append({w: made[w] for w in ranked[n]})
    return groups


def enumerate_nyldon(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All Nyldon words of length 1..max_len, shortest first,
    lexicographic within each length.

    Built up from the letters by the Hall-set recurrence of
    _nyldon_by_length; no membership test runs.  Raises ValueError past
    ENUMERATION_BUDGET.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    return [w for group in _nyldon_by_length(alphabet, max_len) for w in group]


def longest_nyldon_suffix(w: Word, proper: bool = False) -> Word:
    """The longest Nyldon suffix of w.

    The last factor of nyldon_factorize(w) is the longest Nyldon suffix
    of w, so with proper=False that factor is returned; it equals w
    itself iff w is Nyldon.  With proper=True the answer is the longest
    Nyldon suffix of w[1:], the last factor of its factorization; that
    needs |w| >= 2.
    """
    if not w:
        raise ValueError("the empty word has no Nyldon suffix")
    if proper:
        if len(w) < 2:
            raise ValueError("a single letter has no proper Nyldon suffix")
        w = w[1:]
    return nyldon_factorize(w)[-1]


class StandardFactorization(NamedTuple):
    left: Word
    right: Word


def standard_factorization(w: Word) -> StandardFactorization:
    """Split a Nyldon word of length >= 2 as left + right, where right is
    the longest proper Nyldon suffix.

    The left part is then itself Nyldon and lexicographically greater
    than the right part; among all such splits this is the canonical
    one.

    >>> standard_factorization((1, 0, 0))
    StandardFactorization(left=(1, 0), right=(0,))
    """
    if len(w) < 2:
        raise ValueError("standard factorization needs length >= 2")
    if not is_nyldon(w):
        raise ValueError("not a Nyldon word")
    right = longest_nyldon_suffix(w, proper=True)
    return StandardFactorization(w[: len(w) - len(right)], right)


def forbidden_prefix_family(k_param: int, family_index: int) -> Word:
    """A member of one of four binary families of forbidden prefixes.

    family 1:  1 0^k 1 0^k
    family 2:  1 0^k 1011
    family 3:  1 0 1^(k+1) 0 1^(k+1)
    family 4:  1 0^(k+2) 11 0^(k+1) 11

    No binary Nyldon word starts with any of these (checked empirically
    by the paired oracle.is_forbidden_prefix_upto tests; the families are
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
