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

from .words import Alphabet, Word, _check_enumeration_budget


def nyldon_factorize(w: Word) -> tuple[Word, ...]:
    """The unique nondecreasing factorization of w into Nyldon words.

    Reads w right to left, maintaining the factorization of the suffix
    seen so far.  Each new letter is prepended as a one-letter factor;
    then, while the list has at least two factors and the head is
    lexicographically greater than its successor, the two are merged.
    Worst case O(|w|**2) time, from the letters each merge copies into a
    new tuple: 1 0^(n-1) copies about n**2/2 of them.  The comparisons
    are not the quadratic term: they read 2 to 4.4 letters per letter of
    w on random binary and 4-ary words and on run-heavy ones, measured
    at 1,000 to 16,000 letters.

    >>> nyldon_factorize((1, 0, 1, 0, 0))
    ((1, 0), (1, 0, 0))
    >>> nyldon_factorize((1, 0, 1, 1, 0, 1, 1))
    ((1, 0, 1), (1, 0, 1, 1))
    """
    if not w:
        raise ValueError("cannot factorize the empty word")
    stack: list[Word] = []  # the factors, last factor first
    for i in range(len(w) - 1, -1, -1):
        head = w[i:i + 1]
        while stack and head > stack[-1]:
            head += stack.pop()
        stack.append(head)
    return tuple(reversed(stack))


def is_nyldon(w: Word) -> bool:
    """True iff the nondecreasing Nyldon factorization of w is w itself.

    >>> is_nyldon((1, 0, 1, 1, 0))
    True
    >>> is_nyldon((1, 0, 1, 0))
    False
    """
    return len(nyldon_factorize(w)) == 1


def _nyldon_by_length(alphabet: Alphabet, max_len: int) -> list[dict[Word, Word]]:
    """The Nyldon words of length 0..max_len grouped by length.  Group n
    maps its words, in lexicographic order, to the right parts of their
    standard factorizations (the empty word for a letter).

    Nyldon words form a right Lazard set, hence a Hall set: a word of
    length n >= 2 is uv with u, v Nyldon, u > v, and right(u) <= v
    (always true for a letter u, whose right part is the empty word),
    where uv's standard factorization is u.v.  So for
    each shorter u the admissible v of length n - |u| are one
    contiguous range of the sorted group, cut out by two bisections,
    and the work follows the number of words made.  Raises ValueError
    for max_len < 1 or past ENUMERATION_BUDGET.
    """
    _check_enumeration_budget("Nyldon", alphabet, max_len)
    groups: list[dict[Word, Word]] = [{}, dict.fromkeys(((a,) for a in alphabet.letters()), ())]
    ranked: list[list[Word]] = [[], list(groups[1])]
    for n in range(2, max_len + 1):
        made: dict[Word, Word] = {}
        for i in range(1, n):
            vs = ranked[n - i]
            for u, right in groups[i].items():
                for v in vs[bisect_left(vs, right):bisect_left(vs, u)]:
                    made[u + v] = v
        ranked.append(sorted(made))
        groups.append({w: made[w] for w in ranked[n]})
    return groups


def enumerate_nyldon(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All Nyldon words of length 1..max_len, shortest first,
    lexicographic within each length.

    Built up from the letters by the Hall-set recurrence of
    _nyldon_by_length; no membership test runs.  Raises ValueError for
    max_len < 1 or past ENUMERATION_BUDGET.
    """
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


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Nyldon word of length >= 2 as left + right, where right is
    the longest proper Nyldon suffix.

    The left part is then itself Nyldon and lexicographically greater
    than the right part; among all such splits this is the canonical
    one.

    >>> standard_factorization((1, 0, 0))
    ((1, 0), (0,))
    """
    if len(w) < 2:
        raise ValueError("standard factorization needs length >= 2")
    if not is_nyldon(w):
        raise ValueError("not a Nyldon word")
    right = longest_nyldon_suffix(w, proper=True)
    return w[: len(w) - len(right)], right
