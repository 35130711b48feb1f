"""Bounded elimination runs: pinned traces, quadrant identities,
order-theoretic side conditions, permutation equivariance.

A run under the order that ranks perm[0] below perm[1] below ... is the
plain run relabeled letter by letter, so those runs are built here with
relabeled() and checked against the permuted order directly."""

import bisect
import heapq
import operator
import time

import pytest

import nyldon.lazard

from nyldon import (
    Alphabet,
    LazardStep,
    LazardTrace,
    apply_permutation,
    enumerate_lyndon,
    enumerate_nyldon,
    lazard_eliminated,
    lazard_run,
    lazard_stepcount_nyldon,
    lyndon_factorize,
    necklace_count,
    reverse_permutation,
)
from nyldon.factorization import _nyldon_by_length
from nyldon.lazard import LAZARD_BUDGET
from nyldon.words import ENUMERATION_BUDGET

from golden import (
    ELIM_LEFT_MAX,
    ELIM_LEFT_MIN,
    ELIM_RIGHT_MAX,
    ELIM_RIGHT_MAX_REVERSED,
    ELIM_RIGHT_MIN,
    w,
    ws,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


def relabeled(trace, perm):
    """The trace with every word relabeled through perm."""
    return LazardTrace(tuple(
        LazardStep(tuple(apply_permutation(perm, v) for v in step.snapshot),
                   apply_permutation(perm, step.chosen))
        for step in trace.steps
    ))


def assert_matches(trace, golden):
    assert trace.eliminated == golden["eliminated"]
    assert len(trace.steps) == len(golden["snapshots"])
    for step, snapshot in zip(trace.steps, golden["snapshots"]):
        assert set(step.snapshot) == set(ws(snapshot))


def test_left_min_trace_is_pinned():
    assert_matches(lazard_run("left", "min", A2, 5), ELIM_LEFT_MIN)


def test_right_max_trace_is_pinned():
    assert_matches(lazard_run("right", "max", A2, 5), ELIM_RIGHT_MAX)


def test_right_min_trace_is_pinned():
    assert_matches(lazard_run("right", "min", A2, 5), ELIM_RIGHT_MIN)


def test_left_max_trace_is_pinned():
    assert_matches(lazard_run("left", "max", A2, 5), ELIM_LEFT_MAX)


def test_right_max_reversed_trace_is_pinned():
    trace = relabeled(lazard_run("right", "max", A2, 5), reverse_permutation(2))
    assert_matches(trace, ELIM_RIGHT_MAX_REVERSED)


def test_quadrant_identities():
    # left/min and right/max drain the Lyndon words (ascending and
    # descending), left/min relabeled by letter reversal is left/max, and
    # right/min drains the Nyldon words ascending.  The `lazard` summary
    # lines print lazard_eliminated, so it and each run are checked for
    # k <= 4 up to a top size (covering HALL_RANGES) that runs in about a second
    for k, top in ((1, 234), (2, 12), (3, 7), (4, 6)):
        a = Alphabet(k)
        perm = reverse_permutation(k)
        for n in range(1, top + 1):
            lyndon = sorted(enumerate_lyndon(a, n))
            expected = {
                ("left", "min"): tuple(lyndon),
                ("left", "max"): tuple(apply_permutation(perm, v) for v in lyndon),
                ("right", "min"): tuple(sorted(enumerate_nyldon(a, n))),
                ("right", "max"): tuple(reversed(lyndon)),
            }
            for (side, select), eliminated in expected.items():
                assert lazard_run(side, select, a, n).eliminated == eliminated, (side, select, k, n)
                assert tuple(lazard_eliminated(side, select, a, n)) == eliminated, (side, select, k, n)


RUNS = tuple((side, select) for side in ("left", "right") for select in ("min", "max"))


def test_the_budget_charges_the_words_a_run_records(monkeypatch):
    # the whole run is charged before its first working set is built, so a
    # budget of the run's own total answers and one word less refuses it
    traces = {(side, select): lazard_run(side, select, A2, 6) for side, select in RUNS}
    for (side, select), trace in traces.items():
        total = sum(len(step.snapshot) for step in trace.steps)
        monkeypatch.setattr("nyldon.lazard.LAZARD_BUDGET", total)
        assert lazard_run(side, select, A2, 6) == trace
        monkeypatch.setattr("nyldon.lazard.LAZARD_BUDGET", total - 1)
        with pytest.raises(ValueError, match=f"k=2 letters up to length n=6 .* {total - 1} snapshot words"):
            lazard_run(side, select, A2, 6)


def test_huge_runs_are_refused_before_a_large_working_set_is_built():
    # a run enumerates its family first, so the enumeration budget refuses
    # a huge k or n at once, and names both
    for a, n in ((A2, 10 ** 9), (Alphabet(10 ** 9), 2)):
        for side, select in RUNS:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"k={a.size} .* n={n} .* {ENUMERATION_BUDGET} words"):
                lazard_run(side, select, a, n)
            assert time.perf_counter() - start < 1, (a, n, side, select)


@pytest.mark.parametrize("side, select, k, n", [
    ("left", "max", 2, 22),
    ("left", "max", 4, 11),
    ("left", "min", 3, 40),
    ("right", "max", 2, 16),
])
def test_runs_past_a_budget_are_refused_before_any_working_set(side, select, k, n):
    # each of these recorded working sets for one to three seconds before
    # the whole run was charged up front
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"k={k} .* n={n} "):
        lazard_run(side, select, Alphabet(k), n)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("select", ["min", "max"])
@pytest.mark.parametrize("k, n", [(2, 21), (3, 13), (773, 2)])
def test_right_runs_are_refused_after_a_few_parts(monkeypatch, select, k, n):
    # each run charges its words in elimination order as their parts are
    # read, so it passes the budget a few thousand words in, not after
    # computing all 192k-299k parts
    calls = []

    def counted(factorize):
        def part(w):
            calls.append(w)
            return factorize(w)
        return part

    for name in ("lyndon_factorize", "nyldon_factorize"):
        monkeypatch.setattr(f"nyldon.lazard.{name}", counted(getattr(nyldon.lazard, name)))
    with pytest.raises(ValueError, match=f"k={k} .* n={n} .* {LAZARD_BUDGET} snapshot words"):
        lazard_run("right", select, Alphabet(k), n)
    assert 0 < len(calls) <= 5000


def test_one_letter_runs_take_one_step_at_every_length():
    for side, select in RUNS:
        assert lazard_run(side, select, Alphabet(1), 10 ** 6).steps == (LazardStep(((0,),), (0,)),)


# alphabet sizes and the longest words whose working sets are checked in full
HALL_RANGES = ((1, 12), (2, 12), (3, 7), (4, 5))


def test_every_working_set_is_its_hall_closed_form():
    # the paper's theorem, step by step: with h the word a step eliminates,
    # its working set is the family's words from h on, in elimination
    # order, that are letters or whose recorded part lies beyond h.  That
    # part is right(v) for right/min, the longest proper Lyndon suffix for
    # right/max and the longest proper Lyndon prefix for left/min
    for k, top in HALL_RANGES:
        a = Alphabet(k)
        for n in range(1, top + 1):
            lyndon = enumerate_lyndon(a, n)
            runs = {
                ("right", "min", operator.lt):
                    {v: part for group in _nyldon_by_length(a, n) for v, part in group.items()},
                ("right", "max", operator.gt):
                    {v: lyndon_factorize(v[1:])[-1] if len(v) > 1 else None for v in lyndon},
                ("left", "min", operator.lt):
                    {v: lyndon_factorize(v[:-1])[0] if len(v) > 1 else None for v in lyndon},
            }
            for (side, select, beyond), parts in runs.items():
                order = sorted(parts, reverse=select == "max")
                trace = lazard_run(side, select, a, n)
                assert trace.eliminated == tuple(order), (side, select, k, n)
                for s, (step, h) in enumerate(zip(trace.steps, order)):
                    expected = {v for v in order[s:] if parts[v] is None or beyond(parts[v], h)}
                    assert set(step.snapshot) == expected, (side, select, k, n, h)


def test_every_working_set_is_the_rewriting_of_the_last():
    # the elimination by its definition, against every step lazard_run
    # records: the letters first; each step chooses the min (or max) u of
    # its set Y, and the next set is {y u^j (u^j y on the left) : y in
    # Y - {u}, j >= 0} cut to length n; the last set is one word
    for k, top in HALL_RANGES:
        a = Alphabet(k)
        for n in range(1, top + 1):
            for side, select in RUNS:
                pick = min if select == "min" else max
                steps = lazard_run(side, select, a, n).steps
                assert set(steps[0].snapshot) == {(x,) for x in a.letters()}
                for step in steps:
                    assert len(set(step.snapshot)) == len(step.snapshot)
                    assert step.chosen == pick(step.snapshot), (side, select, k, n)
                for step, after in zip(steps, steps[1:]):
                    u, expected = step.chosen, set()
                    for y in set(step.snapshot) - {u}:
                        while len(y) <= n:
                            expected.add(y)
                            y = y + u if side == "right" else u + y
                    assert set(after.snapshot) == expected, (side, select, k, n, u)
                assert len(steps[-1].snapshot) == 1, (side, select, k, n)


def lazy_right_min_run(alphabet, max_len):
    """The right/min run's eliminated words, with each working-set word
    made only when its parent is eliminated.

    A word y born at step b stays in the working set until it is chosen
    at step t, and each step s in between gives it the children
    y u_s^j.  They extend y, so they are greater than y, and the minimum
    of the working set is never a word whose parent is still there: a
    heap that receives y's children only when y is popped pops the same
    words in the same order.  The chosen words' steps are kept by length,
    so the steps s > b are found by bisection.
    """
    heap = [((a,), 0) for a in alphabet.letters()]
    steps_by_len = [[] for _ in range(max_len + 1)]
    eliminated = []
    while heap:
        y, birth = heapq.heappop(heap)
        for length in range(1, max_len - len(y) + 1):
            steps = steps_by_len[length]
            for s in steps[bisect.bisect_right(steps, birth):]:
                u = eliminated[s - 1]
                child = y + u
                while len(child) <= max_len:
                    heapq.heappush(heap, (child, s))
                    child += u
        eliminated.append(y)
        steps_by_len[len(y)].append(len(eliminated))
    return tuple(eliminated)


def test_lazy_right_min_run_lists_the_nyldon_words_past_the_lazard_budget():
    # a third construction of the Nyldon words, from the paper's right
    # Lazard property, against the Hall-set generator where lazard_run
    # is refused
    for a, n in ((A2, 18), (A3, 11)):
        assert lazy_right_min_run(a, n) == tuple(sorted(enumerate_nyldon(a, n))), n


def test_left_max_eliminates_letter_reversed_lyndon_words():
    perm = reverse_permutation(2)
    images = {apply_permutation(perm, v) for v in enumerate_lyndon(A2, 5)}
    assert set(lazard_run("left", "max", A2, 5).eliminated) == images


def test_left_max_equals_left_min_under_reversal():
    # on prefix-free working sets the plain-lex maximum and the
    # reversed-order minimum coincide, so the two runs are identical
    plain = lazard_run("left", "max", A2, 5)
    twisted = relabeled(lazard_run("left", "min", A2, 5), reverse_permutation(2))
    assert plain.eliminated == twisted.eliminated
    for a, b in zip(plain.steps, twisted.steps):
        assert set(a.snapshot) == set(b.snapshot)


def test_left_max_extrema_agree_stepwise():
    perm = reverse_permutation(2)
    for step in lazard_run("left", "max", A2, 5).steps:
        assert step.chosen == max(step.snapshot)
        images = {apply_permutation(perm, v): v for v in step.snapshot}
        assert images[min(images)] == step.chosen


def test_right_side_extrema_genuinely_differ():
    # suffix-free sets do not align the two orders: step 2 of the
    # right/max run under reversal picks 10000 while the plain-lex
    # minimum of the same set is 1
    trace = relabeled(lazard_run("right", "max", A2, 5), reverse_permutation(2))
    assert trace.steps[1].chosen == w("10000")
    assert min(trace.steps[1].snapshot) == w("1")


def test_left_snapshots_prefix_free_right_snapshots_suffix_free():
    def prefix_free(words):
        return not any(
            u != v and v[: len(u)] == u for u in words for v in words
        )

    def suffix_free(words):
        return not any(
            u != v and v[len(v) - len(u):] == u for u in words for v in words
        )

    for k, n in ((2, 5), (3, 3)):
        a = Alphabet(k)
        for sel in ("min", "max"):
            for step in lazard_run("left", sel, a, n).steps:
                assert prefix_free(step.snapshot)
            for step in lazard_run("right", sel, a, n).steps:
                assert suffix_free(step.snapshot)


def test_nyldon_products_exceed_their_right_factor():
    # under the family's own (reversed) order a member fg must lie
    # below its right factor g, i.e. fg >lex g; this is the right-side
    # growth condition and it holds throughout
    nyldon = enumerate_nyldon(A2, 8)
    members = set(nyldon)
    seen = 0
    for f in nyldon:
        for g in nyldon:
            fg = f + g
            if len(fg) <= 8 and fg in members:
                assert fg > g
                seen += 1
    assert seen > 50


def test_nyldon_fails_the_left_side_growth_condition():
    # the mirrored condition would need f >lex fg whenever f, g and fg
    # are all members; 1 and 0 and 10 break it, since 1 <lex 10.  The
    # family therefore cannot come out of a left elimination.
    from nyldon import is_nyldon

    assert is_nyldon(w("1")) and is_nyldon(w("0")) and is_nyldon(w("10"))
    assert not w("1") > w("10")


def test_permutation_equivariance():
    # the relabeled plain run selects the extreme of each relabeled
    # working set under the permuted order, where letter perm[i] has
    # rank i and words compare by their rank sequences
    cases = [(A2, 5, reverse_permutation(2)), (A3, 3, (1, 2, 0))]
    for a, n, perm in cases:
        rank = {letter: i for i, letter in enumerate(perm)}

        def key(v):
            return tuple(rank[letter] for letter in v)

        for side in ("left", "right"):
            for sel in ("min", "max"):
                pick = min if sel == "min" else max
                twisted = relabeled(lazard_run(side, sel, a, n), perm)
                for step in twisted.steps:
                    assert step.chosen == pick(step.snapshot, key=key)


def test_nyldon_cover_stepcounts():
    assert lazard_stepcount_nyldon(A2, 5) == (4, 14)
    assert lazard_stepcount_nyldon(A2, 1) == (1, 2)
    assert lazard_stepcount_nyldon(A2, 7) == (29, 41)
    assert lazard_stepcount_nyldon(A3, 4) == (11, 32)


# alphabet sizes and the longest words whose right/min runs are checked in full
BIRTH_RANGES = ((1, 6), (2, 10), (3, 6), (4, 4))


def stepcount_by_run(alphabet, max_len):
    """The step count by definition: the first step by which every Nyldon
    word has been eliminated or lies in the working set."""
    missing = set(enumerate_nyldon(alphabet, max_len))
    count = len(missing)
    for j, step in enumerate(lazard_run("right", "min", alphabet, max_len).steps, 1):
        missing.difference_update(step.snapshot)
        if not missing:
            return j, count
    raise AssertionError("right/min elimination failed to cover the Nyldon words")


def test_nyldon_words_are_born_after_their_right_part():
    # the right/min run eliminates the words in increasing order, and a
    # word enters the working set when the right part of its standard
    # factorization is eliminated: at step 1 + its rank, or 1 for a letter
    for k, top in BIRTH_RANGES:
        a = Alphabet(k)
        for n in range(1, top + 1):
            first = {}
            for s, step in enumerate(lazard_run("right", "min", a, n).steps, 1):
                for v in step.snapshot:
                    first.setdefault(v, s)
            groups = _nyldon_by_length(a, n)
            rank = {v: r for r, v in enumerate(sorted(v for g in groups for v in g), 1)}
            for group in groups:
                for v, right in group.items():
                    assert first[v] == (1 if right is None else 1 + rank[right]), (k, n, v)


def test_stepcount_equals_the_run_based_reference():
    for k, top in BIRTH_RANGES:
        a = Alphabet(k)
        for n in range(1, top + 1):
            assert lazard_stepcount_nyldon(a, n) == stepcount_by_run(a, n), (k, n)


def test_stepcount_is_bounded_by_the_enumeration_budget():
    # no run is made, so sizes lazard_run refuses are answered
    assert lazard_stepcount_nyldon(A2, 14) == (2068, 2538)
    with pytest.raises(ValueError, match=f"enumerating Nyldon .* n=22 .* {ENUMERATION_BUDGET}"):
        lazard_stepcount_nyldon(A2, 22)


def test_lyndon_words_can_appear_late():
    # the Lyndon-draining runs hold one length-5 word back until the
    # 13th working set, in contrast with the Nyldon cover by step 4
    left = lazard_run("left", "min", A2, 5)
    assert w("01111") in left.steps[12].snapshot
    assert w("01111") not in left.steps[11].snapshot
    right = lazard_run("right", "max", A2, 5)
    assert w("00001") in right.steps[12].snapshot
    assert w("00001") not in right.steps[11].snapshot


def test_runs_end_without_repeats_after_one_step_per_necklace():
    # every run ends, whatever the side and selector: the eliminated words
    # and the last working set factor the free monoid uniquely, so no word
    # is eliminated twice and the run takes one step per necklace class
    for k, top in ((1, 6), (2, 10), (3, 6), (4, 4)):
        a = Alphabet(k)
        for n in range(1, top + 1):
            classes = sum(necklace_count(k, length) for length in range(1, n + 1))
            for side in ("left", "right"):
                for sel in ("min", "max"):
                    trace = lazard_run(side, sel, a, n)
                    assert len(set(trace.eliminated)) == len(trace.steps), (k, n, side, sel)
                    assert len(trace.steps) == classes, (k, n, side, sel)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lazard_run("up", "min", A2, 3)
    with pytest.raises(ValueError):
        lazard_run("left", "median", A2, 3)
    with pytest.raises(ValueError):
        lazard_run("left", "min", A2, 0)
    with pytest.raises(ValueError):
        lazard_stepcount_nyldon(A2, 0)
