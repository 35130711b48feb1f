"""Left and right Lazard elimination over a bounded-length universe.

A run starts from the alphabet and repeatedly removes one word u from
the working set Y, replacing Y by u*(Y - {u}) on the left side or by
(Y - {u})u* on the right side, truncated to words of length <= n
throughout (the untruncated sets are infinite, and only the bounded
part is ever inspected).  The four extremal selectors sweep out
classical families of the bounded universe:

    left  / min   the Lyndon words, in increasing order
    left  / max   the left/min run, relabeled by letter reversal
    right / min   the Nyldon words, in increasing order
    right / max   the Lyndon words, in decreasing order

Relabeling letters through a permutation pi carries lexicographic order
onto the order ranking pi(0) below pi(1) below pi(2) and so on, and it
commutes with the rewriting, so the run selecting under that order is
the plain run relabeled letter by letter (apply_permutation).  Left
working sets are prefix-free, and on a prefix-free set the maximum is
the minimum under the letter-reversed order: hence the left/max row.

Summary lines come from the generators; lazard_run serves traces, and
LAZARD_BUDGET bounds the words they record, summed over the working sets.
"""

from __future__ import annotations

from typing import NamedTuple

from .factorization import _nyldon_by_length
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
    unordered tuple (sort it to print it); the final step records the
    singleton and chooses its element.

    Every run ends.  Y* = u*((Y - u)u*)* on the right side and
    Y* = (u*(Y - u))*u* on the left are unique factorizations, so the
    eliminated words u_1, ..., u_t and the final working set Y_t satisfy
    prod_s 1/(1 - x^|u_s|) * 1/(1 - Y_t(x)) = 1/(1 - kx) mod x^(n+1),
    whatever word each step picks: at most k^l eliminated words have
    length l, and none is eliminated twice.  ValueError is raised for
    max_len < 1, and for a run that would record more than
    LAZARD_BUDGET snapshot words, before it builds a set past the budget.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if selector not in ("min", "max"):
        raise ValueError(f"selector must be 'min' or 'max', not {selector!r}")
    pick = min if selector == "min" else max
    k = alphabet.size
    what = f"an elimination with k={k} letters up to length n={max_len}"
    if max_len < 1:
        raise ValueError(f"{what} needs n >= 1")
    # counts[l] is the number of length-l words in the working set.  The next
    # set is a code of the y u^j (u^j y on the left), y != u, of length <= n, and
    # keeps each y, so a set of m words leaves at least m - 1, ..., 1 more to
    # record: a run stops once that bound passes the budget.  The letters and
    # the second set, (k - 1) n words a b^j, are checked before counts grows
    counts = [0, k]
    recorded = k
    _refuse_past(LAZARD_BUDGET, [max(k * (k + 1) // 2, k + (k - 1) * max_len)], what, "snapshot words")
    pool: set[Word] = {(a,) for a in alphabet.letters()}
    steps: list[LazardStep] = []
    while True:
        chosen = pick(pool)
        steps.append(LazardStep(tuple(pool), chosen))
        if len(pool) == 1:
            break
        pool.remove(chosen)
        u = len(chosen)
        counts[u] -= 1
        counts += [0] * (max_len + 1 - len(counts))
        for m in range(u, max_len + 1):
            counts[m] += counts[m - u]
        size = sum(counts)
        recorded += size
        _refuse_past(LAZARD_BUDGET, [recorded + size * (size - 1) // 2], what, "snapshot words")
        rewritten: set[Word] = set()
        for y in pool:
            prod = y
            while len(prod) <= max_len:
                rewritten.add(prod)
                prod = prod + chosen if side == "right" else chosen + prod
        pool = rewritten
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
