"""The unique Nyldon rotation of a primitive word.

Every primitive word has exactly one Nyldon word among its rotations,
just as it has exactly one Lyndon word (lyndon.lyndon_conjugate), so
rotating gives a length-preserving bijection between the two families.
Two routes to the Nyldon rotation are provided: Melancon's procedure
(the fast path), which runs the right Lazard elimination on the
circular word with list blocks extended in place, so a run costs its
letters once and no membership test runs, and testing every rotation
(the reference that the tests and `nyldon conjugate --verify` use).
"""

from __future__ import annotations

from .factorization import is_nyldon
from .words import Word, is_primitive


def nyldon_conjugate_bruteforce(w: Word) -> Word:
    """The Nyldon rotation of a primitive word, found by testing every
    rotation, built one at a time so memory stays linear.  Exactly one
    qualifies; finding any other number is a bug in the package, not a
    property of the input, and raises AssertionError rather than
    ValueError."""
    if not is_primitive(w):
        raise ValueError("only primitive words have a Nyldon conjugate")
    hits = [r for r in (w[i:] + w[:i] for i in range(len(w))) if is_nyldon(r)]
    if len(hits) != 1:
        raise AssertionError(
            f"{len(hits)} Nyldon rotations of {w!r}; expected exactly one"
        )
    return hits[0]


def melancon_nyldon_conjugate(w: Word) -> Word:
    """The Nyldon rotation of a primitive word, by Melancon's procedure.

    The blocks, initially the letters of w, always spell a rotation of
    w.  Each pass takes the smallest block h and absorbs every copy of h
    into the block on its left, extending that list in place, so a run
    of m copies costs m*|h| letters.  h itself is never extended: only
    blocks of other values are, and one exists since w is primitive.
    Copies of h before the first other block, the lead run, belong to
    the last block, their left neighbour on the circle.  A pass removes
    every copy of h, so the block count falls; the last is the answer."""
    if not is_primitive(w):
        raise ValueError("only primitive words have a Nyldon conjugate")
    blocks = [[a] for a in w]
    while len(blocks) > 1:
        h = min(blocks)
        lead, merged = [], []
        for b in blocks:
            if b == h:
                (merged[-1] if merged else lead).extend(b)
            else:
                merged.append(b)
        merged[-1].extend(lead)
        blocks = merged
    return tuple(blocks[0])
