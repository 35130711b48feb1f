"""Self-tests for the benchmark's own logic.

    python3 bench/selftest.py

Covers the self-time arithmetic on nested calls, the growth-exponent
fit, the reference implementations the checks rely on, and that a wrong
output or a wrong exit code is counted as a failure.
"""

from __future__ import annotations

import itertools
import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYER_NAMES, Tracer, growth_exponent  # noqa: E402

import nyldon  # noqa: E402


class FakeClock:
    """Each reading advances time by the next step."""

    def __init__(self, steps):
        self.now, self.steps = 0.0, iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


class SelfTime(unittest.TestCase):
    def test_nested_spans_and_counters(self):
        # readings: outer start, inner start/end, inner start/end, outer end
        clock = FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        tracer = Tracer(clock)
        inner = tracer.wrap("factorization.is_nyldon", lambda w: True, hot=True)
        outer = tracer.wrap("factorization.enumerate_nyldon",
                            lambda a: [w for w in ("0", "1") if inner(w)])
        tracer.job = 7
        self.assertEqual(outer(None), ["0", "1"])
        out, inn = tracer.stats["factorization.enumerate_nyldon"], tracer.stats["factorization.is_nyldon"]
        self.assertEqual((out.calls, inn.calls), (1, 2))
        self.assertEqual((inn.busy, inn.self), (2.0 + 4.0, 2.0 + 4.0))
        self.assertEqual(out.busy, 15.0)  # 1 + 2 + 3 + 4 + 5
        self.assertEqual(out.self, 15.0 - 6.0)
        self.assertEqual((out.returned, out.tests), (2, 2))
        # the hot inner calls made no spans; the entry call made one
        self.assertEqual(tracer.spans, [["factorization.enumerate_nyldon", 0.0, 15.0, None, 7]])

    def test_hot_call_from_harness_gets_a_span_and_spans_nest(self):
        clock = FakeClock([1.0] * 8)
        tracer = Tracer(clock)
        hot = tracer.wrap("words.is_primitive", lambda w: True, hot=True)
        leaf = tracer.wrap("oracle.necklace_count", lambda: hot(()))
        root = tracer.wrap("cli.count", lambda: leaf())
        hot(())
        root()
        names = [(name, parent) for name, _, _, parent, _ in tracer.spans]
        self.assertEqual(names, [("words.is_primitive", None), ("cli.count", None),
                                 ("oracle.necklace_count", 1)])
        total = sum(s.self for s in tracer.stats.values())
        entry = sum(end - start for _, start, end, parent, _ in tracer.spans if parent is None)
        self.assertAlmostEqual(total, entry)

    def test_recursion_counts_busy_once(self):
        tracer = Tracer(FakeClock([1.0] * 4))
        box = {}
        box["f"] = tracer.wrap("lyndon.is_lyndon", lambda w: len(w) < 2 or box["f"](w[1:]))
        box["f"]("ab")  # two nested calls; readings 1 and 4 bound the outer one
        stat = tracer.stats["lyndon.is_lyndon"]
        self.assertEqual(stat.calls, 2)
        self.assertEqual((stat.busy, stat.self), (3.0, 3.0))

    def test_install_rebinds_every_import_and_uninstall_restores(self):
        original = nyldon.factorization.is_nyldon
        tracer = Tracer()
        tracer.install()
        try:
            for module in (nyldon, nyldon.factorization, nyldon.codes, nyldon.cli, nyldon.oracle):
                self.assertIsNot(module.is_nyldon, original)
            nyldon.cli.main(["test", "10"])
            self.assertEqual(tracer.stats["cli.test"].calls, 1)
            self.assertEqual(tracer.stats["factorization.is_nyldon"].calls, 1)
        finally:
            tracer.uninstall()
        self.assertIs(nyldon.cli.is_nyldon, original)
        self.assertEqual(set(tracer.stats), set(LAYER_NAMES))


class ExponentFit(unittest.TestCase):
    def test_recovers_known_exponents(self):
        rng = random.Random(0)
        sizes = [2 ** i for i in range(6, 15)]
        for exponent in (1.0, 2.0, 3.0):
            points = [(n, 1e-7 * n ** exponent * rng.uniform(0.9, 1.1)) for n in sizes]
            self.assertAlmostEqual(growth_exponent(points), exponent, delta=0.05)

    def test_exponents_from_traced_root_spans(self):
        jobs_ = [["c", "f.g", "s", n] for n in (100, 200, 400)]
        passes = [{"jobs": jobs_, "spans": [["f.g", 0.0, (n / 100) ** 2, None, i]
                                             for i, (_, _, _, n) in enumerate(jobs_)]}]
        self.assertAlmostEqual(run.exponents(passes)["f.g.exp.s"], 2.0)


class Probe(unittest.TestCase):
    def test_normalize_scales_each_job_by_its_neighbouring_probes(self):
        ref = probe.REFERENCE_S
        # the second job ran while the machine read twice as slow
        times = probe.normalize([1.0, 2.0], [ref, ref, 3 * ref])
        self.assertEqual(times, [1.0, 1.0])
        self.assertEqual(probe.normalize([1.0, 2.0], [ref, ref, 3 * ref], 0.0), [1.0, 2.0])
        half = probe.normalize([2.0], [4 * ref, 4 * ref], 0.5)
        self.assertAlmostEqual(half[0], 1.0)

    def test_probe_reads_a_positive_time(self):
        self.assertGreater(probe.probe(), 0.0)


class References(unittest.TestCase):
    def test_references_agree_with_the_library_exhaustively(self):
        for n in range(1, 11):
            for w in itertools.product(range(2), repeat=n):
                self.assertEqual(checks.nyldon_reference(w), list(nyldon.nyldon_factorize(w)))
                self.assertEqual(checks.duval(w), list(nyldon.lyndon_factorize(w)))
                self.assertEqual(checks.is_primitive_reference(w), nyldon.is_primitive(w))

    def test_necklace_formula(self):
        self.assertEqual([checks.necklaces(2, n) for n in range(1, 11)],
                         [2, 1, 2, 3, 6, 9, 18, 30, 56, 99])


class Failures(unittest.TestCase):
    def test_wrong_factorization_and_crash_are_failures(self):
        w = (1, 0, 1, 0, 0)
        job = jobs.LadderJob("factorize", "factorization.nyldon_factorize", "test", w)
        calls = [lambda: ((1, 0), (1, 0, 0)),      # right
                 lambda: ((1, 0, 1), (0, 0)),      # concatenates, wrong split
                 lambda: ((1, 0, 0), (1, 0)),      # wrong order
                 lambda: 1 // 0]                   # crash
        results, errors, _, probes, _ = worker._timed(calls, None)
        self.assertEqual(len(probes), len(calls) + 1)
        failures = [worker._failure(errors.get(i), worker.check_ladder, job, results[i])
                    for i in range(len(calls))]
        self.assertIsNone(failures[0])
        self.assertTrue(all(failures[1:]), failures)

    def test_wrong_membership_and_conjugate_are_failures(self):
        self.assertIsNotNone(checks.check_membership("is_nyldon", (0, 1), True))
        square = (1, 0, 1, 1, 0, 1)
        self.assertIsNotNone(checks.check_membership("is_primitive", square, True))
        self.assertIsNone(checks.check_membership("is_primitive", square, False))
        self.assertIsNotNone(checks.check_membership("is_primitive", square[:3], False))
        self.assertIsNotNone(checks.check_conjugate("nyldon", (0, 1, 1), (1, 1, 1)))
        self.assertIsNotNone(checks.check_conjugate("nyldon", (0, 1, 1), (0, 1, 1)))
        self.assertIsNone(checks.check_conjugate("nyldon", (0, 1, 1), (1, 0, 1)))

    def test_membership_jobs_have_both_answers(self):
        """A stub answering True (or False) for every word fails some job."""
        for function in ("words.is_primitive", "lyndon.is_lyndon", "factorization.is_nyldon"):
            words = [job.word for job in jobs.word_ladder(1) if job.function == function]
            for stub in (True, False):
                self.assertTrue(any(checks.check_membership(function.split(".")[1], w, stub)
                                    for w in words), (function, stub))

    def test_wrong_exit_code_is_a_failure(self):
        invocations = [jobs.Invocation(["factorize", "10100"], 0, "10|100\n"),
                       jobs.Invocation(["factorize", "10100"], 1, ""),
                       jobs.Invocation(["enumerate", "-k", "2"], 0, "")]
        out = run.cli_pass(invocations, False, run.child_env())
        self.assertEqual(sorted(out["failures"]), ["1", "2"])

    def test_count_check_uses_the_formula(self):
        argv = ["count", "-k", "2", "-n", "3"]
        self.assertIsNone(checks.check_counts(argv, "1 2\n2 1\n3 2\n"))
        self.assertIsNotNone(checks.check_counts(argv, "1 2\n2 1\n3 3\n"))


if __name__ == "__main__":
    unittest.main()
