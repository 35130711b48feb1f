"""Words over a finite ordered alphabet, encoded as tuples of small ints.

A word is a tuple of letters; a letter is an int in range(k) for an
alphabet of size k.  Python's tuple comparison is exactly the
lexicographic order used throughout this package: letters compare as
ints, and a proper prefix sorts before every extension of it.  So
``u < v`` on word tuples is the word order, and most code just uses the
comparison operators directly.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]

# the largest enumeration of either family taken on, in the size measure of
# _check_enumeration_budget; the largest accepted `enumerate` takes about 2 s
ENUMERATION_BUDGET = 3 * 10 ** 5

# letter a -> ASCII digit a, for formatting words over alphabets of at most 10 letters
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def is_primitive(w: Word) -> bool:
    """True iff w is nonempty and not u**m for any shorter u and m >= 2.

    If w = u**m with m >= 2 and q is a prime dividing m, w is the q-th
    power of u**(m/q), so it has period |w|/q; and a period p dividing
    |w| makes w = w[:p]**(|w|/p).  So one slice comparison per distinct
    prime factor q of |w|, found by trial division, decides it.  The
    empty word counts as a power, hence not primitive.
    """
    n = m = len(w)
    if n == 0:
        return False
    q = 2
    while q * q <= m:
        if m % q == 0:
            if w[n // q:] == w[:-(n // q)]:
                return False
            while m % q == 0:
                m //= q
        q += 1
    return m == 1 or w[n // m:] != w[:-(n // m)]


def _read_letters(tokens: list[str], text: str) -> Word:
    """The letters spelled by decimal tokens split from text.  Only
    ASCII decimals are read: int() alone would also take "+1", "1_0",
    " 1" and other scripts' digits."""
    if not all(t.isascii() and t.isdigit() for t in tokens):
        raise ValueError(f"cannot parse word {text!r}")
    return tuple(map(int, tokens))


def _refuse_past(budget: int, totals: Iterable[int], what: str, unit: str = "words") -> None:
    """Raise ValueError, naming what, at the first of the nondecreasing
    running totals that passes budget.  Pass the totals lazily, and a
    huge request is refused at once."""
    if any(total > budget for total in totals):
        raise ValueError(f"{what} needs more than the budget of {budget} {unit}")


def _check_enumeration_budget(family: str, alphabet: Alphabet, max_len: int) -> None:
    """Refuse enumerating the family's words of length <= max_len when
    max_len < 1 or when max(d, ceil(k**d / d)), summed over d <= max_len,
    passes ENUMERATION_BUDGET.  Length d holds at most k**d/d of them (the
    aperiodic necklace count), and building it costs at least d - 1 splits."""
    k = alphabet.size
    what = f"enumerating {family} words with k={k} letters up to length n={max_len}"
    if max_len < 1:
        raise ValueError(f"{what} needs n >= 1")
    sizes = (max(d, -(-k ** d // d)) for d in range(1, max_len + 1))
    _refuse_past(ENUMERATION_BUDGET, itertools.accumulate(sizes), what)


class Alphabet(namedtuple("Alphabet", "size")):
    """The ordered alphabet {0 < 1 < ... < size-1}."""

    __slots__ = ()

    def __new__(cls, size: int) -> Alphabet:
        if size < 1:
            raise ValueError(f"an alphabet with k={size} letters needs k >= 1")
        return super().__new__(cls, size)

    def letters(self) -> range:
        return range(self.size)

    def validate(self, w: Iterable[int]) -> None:
        for a in w:
            if not 0 <= a < self.size:
                raise ValueError(f"letter {a!r} outside alphabet of size {self.size}")

    def words_of_length(self, n: int) -> Iterator[Word]:
        """All size**n words of length n, in lexicographic order."""
        return itertools.product(self.letters(), repeat=n)

    def words_upto(self, max_len: int) -> Iterator[Word]:
        """All nonempty words of length <= max_len, shortest first,
        lexicographic within each length."""
        for n in range(1, max_len + 1):
            yield from self.words_of_length(n)

    def parse(self, text: str) -> Word:
        """Read a word from text; inverse of format().

        Alphabets of size <= 10 use one ASCII digit per letter
        ("10100"); larger ones use comma-separated ASCII decimals
        ("2,10,0").  The empty string parses to the empty word.
        """
        if text == "":
            return ()
        w = _read_letters(list(text) if self.size <= 10 else text.split(","), text)
        self.validate(w)
        return w

    def format(self, w: Word) -> str:
        """Render a word as text; parse(format(w)) == w.  The letters of
        w must belong to this alphabet: alphabets of size <= 10 map each
        letter through a table that holds only the digits 0-9."""
        if self.size <= 10:
            return bytes(w).translate(_DIGITS).decode()
        return ",".join(map(str, w))


def format_factorization(alphabet: Alphabet, factors: Sequence[Word]) -> str:
    """Render a factorization with its factors joined by '|'."""
    return "|".join(alphabet.format(f) for f in factors)
