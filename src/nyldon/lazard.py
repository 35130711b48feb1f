"""Left and right Lazard elimination over a bounded-length universe.

A run starts from the alphabet and repeatedly removes one word u from
the working set Y, replacing Y by u*(Y - {u}) on the left side or by
(Y - {u})u* on the right side, truncated to words of length <= n
throughout (the untruncated sets are infinite, and only the bounded
part is ever inspected).  The four extremal selectors drain Hall sets:
a word enters the working set right after its part is eliminated.

    left  / min   the Lyndon words, increasing; part: longest proper Lyndon prefix
    left  / max   the left/min run, relabeled by letter reversal
    right / min   the Nyldon words, increasing; part: standard right factor
    right / max   the Lyndon words, decreasing; part: longest proper Lyndon suffix

Relabeling letters through a permutation carries lexicographic order
onto the permuted order and commutes with the rewriting, so the run
under that order is the plain run relabeled (apply_permutation).  Left
working sets are prefix-free, and there the maximum is the minimum
under the letter-reversed order: hence the left/max row.

lazard_eliminated gives a run's order alone; lazard_run adds the working sets.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple

from .factorization import _nyldon_by_length, enumerate_nyldon, nyldon_factorize
from .lyndon import enumerate_lyndon, lyndon_factorize
from .words import Alphabet, Word, _refuse_past

# the most snapshot words a run may record, summed over its working sets; a run
# at n = 1 records k(k+1)/2, so `lazard --trace -k 2549 -n 1` (3,249,975) runs
LAZARD_BUDGET = 325 * 10 ** 4


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


def lazard_eliminated(side: str, selector: str, alphabet: Alphabet, max_len: int) -> list[Word]:
    """The words the run eliminates, in order: the Hall set it drains,
    read off the module docstring's table.

    side is "left" or "right"; selector is "min" or "max".  Over one
    letter every run eliminates the letter 0 alone, at any max_len >= 1.
    No working set is built.  Raises ValueError for an unknown side or
    selector, and for max_len < 1 or past ENUMERATION_BUDGET.

    >>> lazard_eliminated("left", "max", Alphabet(2), 3)
    [(1,), (1, 1, 0), (1, 0), (1, 0, 0), (0,)]
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if selector not in ("min", "max"):
        raise ValueError(f"selector must be 'min' or 'max', not {selector!r}")
    if alphabet.size == 1:  # the letter 0 is the only Lyndon or Nyldon word over one letter
        max_len = min(max_len, 1)
    if (side, selector) == ("right", "min"):
        return sorted(enumerate_nyldon(alphabet, max_len))
    order = sorted(enumerate_lyndon(alphabet, max_len), reverse=side == "right")
    if (side, selector) == ("left", "max"):
        return [tuple(map((alphabet.size - 1).__sub__, v)) for v in order]
    return order


def _charges(side: str, selector: str, order: list[Word], born: dict[int, list[Word]]) -> Iterator[int]:
    """File each word of order in born under the step q after which it
    enters the working set (0 for a letter, else the step eliminating its
    part), and yield j - q, the sets it lies in until step j chooses it."""
    if side == "left":
        # Lyndon v is Duval's successor of the word u before it, so v[:-1] is a prefix of
        # uuu...: its longest Lyndon prefix is u past |u| letters, else that of a prefix of u.
        # owner[i]: the step choosing the longest Lyndon prefix of the last word's first i letters
        owner = [0]
        for j, v in enumerate(order, 1):
            owner[len(v):] = [j - 1] * (len(v) - len(owner))  # cut or pad to |v| entries
            born.setdefault(owner[-1], []).append(v)
            yield j - owner[-1]
            owner.append(j)
    else:  # the part, the last factor of v[1:], is eliminated before v and so ranked
        factorize = nyldon_factorize if selector == "min" else lyndon_factorize
        rank: dict[Word, int] = {}
        for j, v in enumerate(order, 1):
            q = rank[factorize(v[1:])[-1]] if len(v) > 1 else 0
            born.setdefault(q, []).append(v)
            yield j - q
            rank[v] = j


def lazard_run(side: str, selector: str, alphabet: Alphabet, max_len: int) -> LazardTrace:
    """Run the elimination until the working set is a singleton and
    return the full trace.

    side is "left" or "right"; selector is "min" or "max" in
    lexicographic order.  Each snapshot is the working set as an
    unordered tuple (sort it to print it).  The run is read off the
    module docstring's table: the first working set is the letters, and
    each step removes its word h, the next of lazard_eliminated, and adds
    the words whose part is h; the tests check each set against the
    rewriting of the one before.  ValueError is raised for max_len < 1,
    and for a run that would record more than LAZARD_BUDGET snapshot
    words: the run is charged word by word in elimination order, and
    refused as soon as the total passes, before any working set is built.
    """
    what = f"an elimination with k={alphabet.size} letters up to length n={max_len}"
    if max_len < 1:
        raise ValueError(f"{what} needs n >= 1")
    order = lazard_eliminated(side, selector, alphabet, max_len)
    born: dict[int, list[Word]] = {}
    _refuse_past(LAZARD_BUDGET, accumulate(_charges(side, selector, order, born)), what, "snapshot words")
    pool = set(born[0])
    steps: list[LazardStep] = []
    for j, chosen in enumerate(order, 1):
        steps.append(LazardStep(tuple(pool), chosen))
        pool.remove(chosen)
        pool.update(born.get(j, ()))
    return LazardTrace(tuple(steps))


def lazard_stepcount_nyldon(alphabet: Alphabet, max_len: int) -> tuple[int, int]:
    """How early the right/min elimination has produced the Nyldon words
    of length <= max_len: (j, c), where c counts them and j is the least
    step by which each has been eliminated or lies in the working set.

    The run eliminates the Nyldon words in increasing order, step s the
    word of rank s, and a word with standard factorization u.v enters
    the working set when v is eliminated, at step rank(v) + 1.  So j is
    1 + the rank of the greatest right part _nyldon_by_length records,
    or of (), ranked 0, when there are only letters.  No run is needed.
    Raises ValueError for max_len < 1 or past ENUMERATION_BUDGET.
    """
    groups = _nyldon_by_length(alphabet, max_len)
    words = [w for group in groups for w in group]
    last = max((v for group in groups for v in group.values() if v is not None), default=())
    return 1 + sum(w <= last for w in words), len(words)
