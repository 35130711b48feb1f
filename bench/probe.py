"""A fixed pure-Python kernel that reads the machine's current speed.

On a shared machine the same Python code can run at two speeds about
1.8x apart, switching every few seconds and sometimes staying slow for
a minute (another tenant's load on the same physical cores; the guest
sees no steal time).  The benchmark therefore times this probe next to
every job and reports job times scaled to the probe's reference speed:
seconds as they would read on an unloaded core of the reference
machine.  The kernel does what the library spends its time on --
slicing, concatenating and comparing tuples of small ints -- because a
tight arithmetic loop slows about twice as much as that work does, and
would over-correct.  Work that builds large lists of long tuples slows
less than the probe; ``normalize`` takes an elasticity for that.  Its
tuples die at once, so it never runs the program's garbage collection,
and nothing the program does changes its cost.
"""

from __future__ import annotations

import random
import time

WORD = tuple(random.Random(0).randrange(2) for _ in range(300))
# the probe's time on an unloaded core of the reference machine
# (Intel Xeon Processor, 2 vCPUs, Python 3.11.7)
REFERENCE_S = 0.0006


def _kernel(w) -> tuple:
    """The least rotation of w, by building every rotation."""
    return min(w[i:] + w[:i] for i in range(len(w)))


def probe(clock=time.perf_counter) -> float:
    """The fastest of three timed runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = clock()
        _kernel(WORD)
        best = min(best, clock() - start)
    return best


def normalize(times: list[float], probes: list[float], elasticity: float = 1.0) -> list[float]:
    """Job i ran between probes i and i + 1; scale it to the reference speed.

    With elasticity e a job is taken to slow by the probe's slow-down to
    the power e: 1 for work that slows as the probe does, 0 for none
    (the times come back as measured)."""
    return [t * (2 * REFERENCE_S / (before + after)) ** elasticity
            for t, before, after in zip(times, probes, probes[1:])]
