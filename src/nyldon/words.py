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


def rotations(w: Word) -> list[Word]:
    """The |w| rotations w[i:] + w[:i] for i = 0..|w|-1, in that order.

    Duplicates are retained, so a non-primitive word repeats entries.
    """
    if not w:
        raise ValueError("the empty word has no rotations")
    return [w[i:] + w[:i] for i in range(len(w))]


def is_primitive(w: Word) -> bool:
    """True iff w is nonempty and not u**m for any shorter u and m >= 2.

    One prefix-function pass gives the longest proper border of w, so
    p = |w| - border is the least period of w.  A word is a proper
    power exactly when that period is shorter than w and divides |w|.
    Linear time.  The empty word counts as a power, hence not
    primitive.
    """
    n = len(w)
    if n == 0:
        return False
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and w[i] != w[k]:
            k = fail[k - 1]
        if w[i] == w[k]:
            k += 1
        fail[i] = k
    p = n - fail[-1]
    return p == n or n % p != 0


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


def _enumeration_sizes(k: int, max_len: int) -> Iterator[int]:
    """max(d, ceil(k**d / d)) for d = 1..max_len.  Length d holds at most
    k**d/d Lyndon or Nyldon words (their number is the aperiodic
    necklace count), and building it costs at least its d - 1 splits."""
    return (max(d, -(-k ** d // d)) for d in range(1, max_len + 1))


def _check_enumeration_budget(family: str, alphabet: Alphabet, max_len: int) -> None:
    """Refuse an enumeration of the family's words of length <= max_len
    whose _enumeration_sizes sum past ENUMERATION_BUDGET."""
    k = alphabet.size
    _refuse_past(ENUMERATION_BUDGET, itertools.accumulate(_enumeration_sizes(k, max_len)),
                 f"enumerating {family} words with k={k} letters up to length n={max_len}")


class Alphabet(namedtuple("Alphabet", "size")):
    """The ordered alphabet {0 < 1 < ... < size-1}."""

    __slots__ = ()

    def __new__(cls, size: int) -> Alphabet:
        if size < 1:
            raise ValueError("an alphabet needs at least one letter")
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
        """Render a word as text; parse(format(w)) == w."""
        if self.size <= 10:
            return "".join(str(a) for a in w)
        return ",".join(str(a) for a in w)


def format_factorization(alphabet: Alphabet, factors: Sequence[Word]) -> str:
    """Render a factorization with its factors joined by '|'."""
    return "|".join(alphabet.format(f) for f in factors)
