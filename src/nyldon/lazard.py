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

from typing import NamedTuple

from .factorization import enumerate_nyldon
from .words import Alphabet, Word


class LazardTerminationError(RuntimeError):
    """The elimination exceeded its step cap without reaching a
    singleton; the selector does not behave like a Lazard set here."""


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
    step_cap: int | None = None,
) -> LazardTrace:
    """Run the elimination until the working set is a singleton and
    return the full trace.

    side is "left" or "right"; selector is "min" or "max" in
    lexicographic order.  Each snapshot is the working set as an
    unordered tuple (sort it to print it); the final step records the
    singleton and chooses its element.

    The step cap (default 4 times the universe size) only guards
    against a selector that fails to drain the universe; the four
    extremal selectors never hit it.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if selector not in ("min", "max"):
        raise ValueError(f"selector must be 'min' or 'max', not {selector!r}")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    pick = min if selector == "min" else max
    if step_cap is None:
        step_cap = 4 * sum(alphabet.size ** i for i in range(1, max_len + 1))

    pool: set[Word] = {(a,) for a in alphabet.letters()}
    steps: list[LazardStep] = []
    while True:
        if len(steps) >= step_cap:
            raise LazardTerminationError(
                f"no singleton after {step_cap} eliminations ({side}/{selector}, n={max_len})"
            )
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


def lazard_extract(trace: LazardTrace) -> frozenset[Word]:
    """The set of eliminated words of a completed trace.

    A genuine elimination never removes the same word twice; a
    duplicate means the selector was not draining a Lazard set, and is
    reported rather than silently collapsed.
    """
    eliminated = trace.eliminated
    if len(set(eliminated)) != len(eliminated):
        raise ValueError("duplicate eliminated word; not a Lazard-style run")
    return frozenset(eliminated)


def lazard_stepcount_nyldon(alphabet: Alphabet, max_len: int) -> tuple[int, int]:
    """How early the right/min elimination has produced every Nyldon
    word of length <= max_len.

    Returns (j, c) where c is the number of such Nyldon words and j is
    the least step index at which each of them has appeared, either as
    an already-eliminated word or inside the step-j working set.  (The
    working set alone can never contain them all past step 1, since
    eliminated words leave it for good.)
    """
    target = set(enumerate_nyldon(alphabet, max_len))
    trace = lazard_run("right", "min", alphabet, max_len)
    produced: set[Word] = set()
    for j, step in enumerate(trace.steps, 1):
        if target <= produced | set(step.snapshot):
            return j, len(target)
        produced.add(step.chosen)
    raise AssertionError("right/min elimination failed to cover the Nyldon words")
