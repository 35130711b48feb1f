"""Layer tracing installed from outside the package.

A traced run rebinds the public functions of each ``nyldon`` module, in
every ``nyldon`` module that imported them, to wrappers; no file of the
package changes.  A call the harness makes directly, or a coarse layer
makes from inside a spanned call, records a span: name, start, end,
parent span and job id.  A hot inner function called from inside
another layer only updates its counters, so hundreds of thousands of
tiny membership tests cost two clock reads each and no span.

Every wrapped call still feeds the self-time arithmetic: a call's self
time is its duration minus the durations of the wrapped calls made
inside it, and its busy time counts only the outermost call of that
name, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

# (module, function, hot)
LAYERS = (
    ("words", "is_primitive", True),
    ("lyndon", "is_lyndon", True),
    ("lyndon", "lyndon_factorize", True),
    ("lyndon", "lyndon_conjugate", False),
    ("lyndon", "enumerate_lyndon", False),
    ("factorization", "nyldon_factorize", True),
    ("factorization", "is_nyldon", True),
    ("factorization", "longest_nyldon_suffix", False),
    ("factorization", "standard_factorization", False),
    ("factorization", "enumerate_nyldon", False),
    ("conjugacy", "melancon_nyldon_conjugate", False),
    ("conjugacy", "nyldon_conjugate_bruteforce", False),
    ("lazard", "lazard_run", False),
    ("codes", "nyldon_code", False),
    ("codes", "is_comma_free_uniform", False),
    ("codes", "is_circular_bounded", False),
    ("codes", "in_code_star", True),
    ("oracle", "count_by_length", False),
    ("oracle", "counting_bijection", False),
    ("oracle", "necklace_count", False),
)
CLI_COMMANDS = ("factorize", "test", "enumerate", "conjugate", "count", "lazard",
                "codes", "bijection", "powers")
LAYER_NAMES = tuple(f"{m}.{f}" for m, f, _ in LAYERS) + tuple(f"cli.{c}" for c in CLI_COMMANDS)

# for these layers, yield_ratio = words returned / membership tests made inside the call
YIELD_TESTS = {
    "lyndon.enumerate_lyndon": "lyndon.is_lyndon",
    "factorization.enumerate_nyldon": "factorization.is_nyldon",
    "codes.nyldon_code": "factorization.is_nyldon",
}
# the longest word passed to this layer is kept for the untimed allocation probe
LONGEST_ARG = "lyndon.is_lyndon"


class Stat:
    __slots__ = ("calls", "busy", "self", "returned", "tests", "snapshot_words")

    def __init__(self) -> None:
        self.calls = self.returned = self.tests = self.snapshot_words = 0
        self.busy = self.self = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats = {name: Stat() for name in LAYER_NAMES}
        self.spans: list[list] = []  # [name, start, end, parent span index or None, job]
        self.job = None
        self.longest: tuple = ()
        self._stack: list[list] = []  # one [child time, span index or None] per open call
        self._restore: list[tuple] = []

    def wrap(self, name, fn, hot=False):
        """fn wrapped so that each call updates the counters of `name`."""
        stat, stack, spans, clock = self.stats[name], self._stack, self.spans, self.clock
        test = self.stats[YIELD_TESTS[name]] if name in YIELD_TESTS else None
        keep_longest = name == LONGEST_ARG
        depth = 0

        def traced(*args, **kwargs):
            nonlocal depth
            parent = stack[-1] if stack else None
            stat.calls += 1
            if keep_longest and len(args[0]) > len(self.longest):
                self.longest = args[0]
            tests_before = test.calls if test is not None else 0
            span = None
            if parent is None or (not hot and parent[1] is not None):
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent[1] if parent else None, self.job])
            frame = [0.0, span]  # time spent in wrapped calls made inside this one
            depth += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth -= 1
                duration = end - start
                stat.self += duration - frame[0]
                if depth == 0:
                    stat.busy += duration
                if parent is not None:
                    parent[0] += duration
                if span is not None:
                    spans[span][1:3] = start, end
            if test is not None:
                stat.tests += test.calls - tests_before
                stat.returned += len(result)
            elif name == "lazard.lazard_run":
                stat.snapshot_words += sum(len(step.snapshot) for step in result.steps)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_cli(self, main):
        """nyldon.cli.main wrapped; each call counts as cli.<subcommand>."""
        commands = {c: self.wrap(f"cli.{c}", main) for c in CLI_COMMANDS}

        def traced(argv=None):
            traced_main = commands.get(argv[0]) if argv else None
            return traced_main(argv) if traced_main else main(argv)

        traced.__wrapped__ = main
        return traced

    def install(self) -> None:
        """Rebind every nyldon module attribute that is one of the layers."""
        importlib.import_module("nyldon.cli")
        wrappers = {}
        for module, function, hot in LAYERS:
            fn = getattr(sys.modules[f"nyldon.{module}"], function)
            wrappers[id(fn)] = (fn, self.wrap(f"{module}.{function}", fn, hot))
        main = sys.modules["nyldon.cli"].main
        wrappers[id(main)] = (main, self.wrap_cli(main))
        for name, module in list(sys.modules.items()):
            if name != "nyldon" and not name.startswith("nyldon."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        out = {}
        for name, s in self.stats.items():
            row = {"calls": s.calls, "busy_s": s.busy, "self_s": s.self}
            if name in YIELD_TESTS:
                row["returned"], row["tests"] = s.returned, s.tests
            if name == "lazard.lazard_run":
                row["snapshot_words"] = s.snapshot_words
            out[name] = row
        return out


def growth_exponent(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
