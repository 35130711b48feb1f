"""The unique Nyldon rotation of a primitive word.

Every primitive word has exactly one Nyldon word among its rotations,
just as it has exactly one Lyndon word (lyndon.lyndon_conjugate), so
rotating gives a length-preserving bijection between the two families.
Two routes to the Nyldon rotation are provided: Melancon's procedure
(the fast path), which runs the right Lazard elimination on the
circular word and never runs a membership test, and testing every
rotation (the reference that the tests and `nyldon conjugate --verify`
check it against).
"""

from __future__ import annotations

from .factorization import is_nyldon
from .words import Word, is_primitive, rotations


def nyldon_conjugate_bruteforce(w: Word) -> Word:
    """The Nyldon rotation of a primitive word, found by testing every
    rotation.  Exactly one qualifies; finding any other number is a bug
    in the package, not a property of the input, and raises
    AssertionError rather than ValueError."""
    if not is_primitive(w):
        raise ValueError("only primitive words have a Nyldon conjugate")
    hits = [r for r in rotations(w) if is_nyldon(r)]
    if len(hits) != 1:
        raise AssertionError(
            f"{len(hits)} Nyldon rotations of {w!r}; expected exactly one"
        )
    return hits[0]


def melancon_nyldon_conjugate(w: Word) -> Word:
    """The Nyldon rotation of a primitive word, by Melancon's procedure.

    Nyldon words form a right Lazard set; this is that elimination run
    on the circular word.  The blocks, initially the letters of w, always
    spell a rotation of w.  Each pass takes the smallest block h, starts
    the circle at a block other than h (one exists, since w is
    primitive), and absorbs every run of copies of h into the block on
    its left.  A pass removes every copy of h and there is at least one,
    so the block count falls each pass; the last block is the answer.
    """
    if not is_primitive(w):
        raise ValueError("only primitive words have a Nyldon conjugate")
    blocks: list[Word] = [w[i:i + 1] for i in range(len(w))]
    while len(blocks) > 1:
        h = min(blocks)
        start = next(i for i, b in enumerate(blocks) if b != h)
        merged: list[Word] = []
        for b in blocks[start:] + blocks[:start]:
            if b == h:
                merged[-1] += b
            else:
                merged.append(b)
        blocks = merged
    return blocks[0]

