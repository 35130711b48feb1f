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
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]


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


@dataclass(frozen=True)
class Alphabet:
    """The ordered alphabet {0 < 1 < ... < size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("an alphabet needs at least one letter")

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

        Alphabets of size <= 10 use one decimal digit per letter
        ("10100"); larger ones use comma-separated decimals ("2,10,0").
        The empty string parses to the empty word.
        """
        if text == "":
            return ()
        if self.size <= 10:
            letters = []
            for ch in text:
                if ch not in "0123456789":
                    raise ValueError(f"bad letter {ch!r} in {text!r}")
                letters.append(int(ch))
        else:
            letters = [int(tok) for tok in text.split(",")]
        w = tuple(letters)
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
