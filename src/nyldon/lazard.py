"""Left and right Lazard elimination over a bounded-length universe.

A run starts from the alphabet and repeatedly removes one word u from
the working set Y, replacing Y by u*(Y - {u}) on the left side or by
(Y - {u})u* on the right side, truncated to words of length <= n
throughout (the untruncated sets are infinite, and only the bounded
part is ever inspected).  The four extremal selectors sweep out
classical families of the bounded universe:

    left  / min   the Lyndon words, in increasing order
    left  / max   the letter-reversed image of the Lyndon words
    right / min   the Nyldon words, in increasing order
    right / max   the Lyndon words, in decreasing order

Relabeling letters through a permutation pi carries lexicographic order
onto the order ranking pi(0) below pi(1) below pi(2) and so on, and it
commutes with the rewriting, so the run selecting under that order is
the plain run relabeled letter by letter (apply_permutation).
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .factorization import enumerate_nyldon
from .words import Alphabet, Word, _enumeration_sizes, _refuse_past

# the most snapshot words a run may record: an extremal run takes one step per
# Lyndon or Nyldon word, and each working set lies in the universe of words of
# length <= n, so it records at most family size x universe words; the largest
# accepted `lazard --trace` takes about 2 s
LAZARD_BUDGET = 65 * 10 ** 5


class LazardStep(NamedTuple):
    """One step: the working set, in no particular order, and the word
    eliminated from it."""

    snapshot: tuple[Word, ...]
    chosen: Word


class LazardTrace(NamedTuple):
    """The steps of a run, in order."""

    steps: tuple[LazardStep, ...]

    @property
    def eliminated(self) -> tuple[Word, ...]:
        return tuple(step.chosen for step in self.steps)


def lazard_run(
    side: str,
    selector: str,
    alphabet: Alphabet,
    max_len: int,
) -> LazardTrace:
    """Run the elimination until the working set is a singleton and
    return the full trace.

    side is "left" or "right"; selector is "min" or "max" in
    lexicographic order.  Each snapshot is the working set as an
    unordered tuple (sort it to print it); the final step records the
    singleton and chooses its element.

    Every run ends.  Y* = u*((Y - u)u*)* on the right side and
    Y* = (u*(Y - u))*u* on the left are unique factorizations, so the
    eliminated words u_1, ..., u_t and the final working set Y_t satisfy
    prod_s 1/(1 - x^|u_s|) * 1/(1 - Y_t(x)) = 1/(1 - kx) mod x^(n+1),
    whatever word each step picks: at most k^l eliminated words have
    length l, and none is eliminated twice.  A run past LAZARD_BUDGET
    raises ValueError before it starts.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if selector not in ("min", "max"):
        raise ValueError(f"selector must be 'min' or 'max', not {selector!r}")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    pick = min if selector == "min" else max
    k = alphabet.size
    universes = accumulate(k ** i for i in range(1, max_len + 1))
    families = accumulate(_enumeration_sizes(k, max_len))
    _refuse_past(LAZARD_BUDGET, (u * f for u, f in zip(universes, families)),
                 f"an elimination with k={k} letters up to length n={max_len}", "snapshot words")

    pool: set[Word] = {(a,) for a in alphabet.letters()}
    steps: list[LazardStep] = []
    while True:
        chosen = pick(pool)
        steps.append(LazardStep(tuple(pool), chosen))
        if len(pool) == 1:
            break
        rewritten: set[Word] = set()
        for y in pool:
            if y == chosen:
                continue
            prod = y
            while len(prod) <= max_len:
                rewritten.add(prod)
                prod = prod + chosen if side == "right" else chosen + prod
        pool = rewritten
    return LazardTrace(tuple(steps))


def lazard_stepcount_nyldon(alphabet: Alphabet, max_len: int) -> tuple[int, int]:
    """How early the right/min elimination has produced every Nyldon
    word of length <= max_len.

    Returns (j, c) where c is the number of such Nyldon words and j is
    the least step index at which each of them has appeared, either as
    an already-eliminated word or inside the step-j working set.  (The
    working set alone can never contain them all past step 1, since
    eliminated words leave it for good.)
    """
    missing = set(enumerate_nyldon(alphabet, max_len))
    count = len(missing)
    for j, step in enumerate(lazard_run("right", "min", alphabet, max_len).steps, 1):
        missing.difference_update(step.snapshot)
        if not missing:
            return j, count
    raise AssertionError("right/min elimination failed to cover the Nyldon words")
