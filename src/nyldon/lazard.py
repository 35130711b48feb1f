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

Summary lines come from the generators; lazard_run serves traces.
"""

from __future__ import annotations

from typing import NamedTuple

from .factorization import _nyldon_by_length
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


def lazard_run(side: str, selector: str, alphabet: Alphabet, max_len: int) -> LazardTrace:
    """Run the elimination until the working set is a singleton and
    return the full trace.

    side is "left" or "right"; selector is "min" or "max" in
    lexicographic order.  Each snapshot is the working set as an
    unordered tuple (sort it to print it).  The run is read off the
    module docstring's table: the first working set is the letters, and
    each step removes its word h and adds the words whose part is h.  So
    every run ends, after one step per family word, by choosing the last
    of them alone; the tests check each set against the rewriting of the
    one before.  ValueError is raised for max_len < 1, and for a run that
    would record more than LAZARD_BUDGET snapshot words, before any
    working set is built.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if selector not in ("min", "max"):
        raise ValueError(f"selector must be 'min' or 'max', not {selector!r}")
    k = alphabet.size
    what = f"an elimination with k={k} letters up to length n={max_len}"
    if max_len < 1:
        raise ValueError(f"{what} needs n >= 1")
    if k == 1:  # the letter 0 is the only Lyndon or Nyldon word over one letter
        max_len = 1
    if side == "left":
        # Lyndon v is Duval's successor of the word u before it, so v[:-1] is a prefix of
        # uuu...: its longest Lyndon prefix is u past |u| letters, else that of a prefix of u.
        # owner[i]: the step choosing the longest Lyndon prefix of the last word's first i letters
        order = sorted(enumerate_lyndon(alphabet, max_len))
        owner, births = [0], []
        for j, v in enumerate(order, 1):
            del owner[len(v):]
            owner += [j - 1] * (len(v) - len(owner))
            births.append(owner[-1])
            owner.append(j)
        if selector == "max":
            order = [tuple(map((k - 1).__sub__, v)) for v in order]
    else:
        if selector == "min":
            parts = {v: part for group in _nyldon_by_length(alphabet, max_len) for v, part in group.items()}
        else:
            lyndon = enumerate_lyndon(alphabet, max_len)
            parts = {v: lyndon_factorize(v[1:])[-1] if len(v) > 1 else None for v in lyndon}
        order = sorted(parts, reverse=selector == "max")
        rank = {None: 0} | {v: j for j, v in enumerate(order, 1)}
        births = [rank[parts[v]] for v in order]
    # the word chosen at step j enters after step q = births[j - 1] and lies in j - q working sets
    _refuse_past(LAZARD_BUDGET, [sum(j - q for j, q in enumerate(births, 1))], what, "snapshot words")
    born: list[list[Word]] = [[] for _ in range(len(order) + 1)]
    for v, q in zip(order, births):
        born[q].append(v)
    pool = set(born[0])
    steps: list[LazardStep] = []
    for chosen, children in zip(order, born[1:]):
        steps.append(LazardStep(tuple(pool), chosen))
        pool.remove(chosen)
        pool.update(children)
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
