"""One pass of the word-ladder or combinatorics workload, in a fresh process.

    python bench/worker.py <word-ladder|combinatorics> <jobs.json> <trace 0|1>

with ``src`` on PYTHONPATH, where jobs.json holds the job list that
bench/run.py made from the seed (so every pass gets the same inputs and
starts from the same memory state).  Prints one JSON line: the pass's wall
time, each job's time, the speed probes around the jobs, the peak RSS
of the timed loop, every failure
the checks found and, when traced,
the layer counters and spans.  Each pass gets its own process, so
nothing the program caches during one pass can answer a job of the
next, and every pass starts from the same interpreter state.  Checks
run after the timed loop.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks
import jobs
from probe import probe
from tracer import Tracer

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _resolve(layer: str):
    module, function = layer.split(".")
    return getattr(sys.modules[f"nyldon.{module}"], function)


def _timed(calls, tracer):
    """Run each zero-argument call, timing it, with a speed probe before
    the first and after every call.  Returns results, errors, times,
    probes and the loop's wall time net of probing."""
    results, errors, times = [None] * len(calls), {}, [0.0] * len(calls)
    clock = time.perf_counter
    gc.collect()
    start = clock()
    probes = [probe()]
    probing = clock() - start
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.job = i
        t = clock()
        try:
            results[i] = call()
        except Exception as exc:  # a crash is a failed job, not a crashed run
            errors[i] = f"{type(exc).__name__}: {exc}"
        times[i] = clock() - t
        t = clock()
        probes.append(probe())
        probing += clock() - t
    return results, errors, times, probes, clock() - start - probing


def _failure(error, check, *args) -> str | None:
    """The job's error, or what its check says; a check that cannot read
    the output counts as a failure too."""
    if error:
        return error
    try:
        return check(*args)
    except Exception as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


def check_ladder(job: jobs.LadderJob, result) -> str | None:
    function = job.function.split(".")[1]
    if function.endswith("_factorize"):
        return checks.check_factorization(function[:-len("_factorize")], job.word, result)
    if function.startswith("is_"):
        return checks.check_membership(function, job.word, result)
    if function == "melancon_nyldon_conjugate":
        return checks.check_conjugate("nyldon", job.word, result)
    if function == "lyndon_conjugate":
        return checks.check_conjugate("lyndon", job.word, result)
    return checks.check_standard(job.word, result)


def word_ladder(listed, tracer):
    job_list = [jobs.LadderJob(c, f, shape, tuple(map(int, word))) for c, f, shape, word in listed]
    if tracer is not None:
        tracer.install()
    calls = [(lambda f=_resolve(job.function), w=job.word: f(w)) for job in job_list]
    results, errors, times, probes, wall = _timed(calls, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    failures = {i: _failure(errors.get(i), check_ladder, job, results[i])
                for i, job in enumerate(job_list)}
    described = [[job.job_class, job.function, job.shape, len(job.word)] for job in job_list]
    return described, times, probes, wall, failures, rss_kb


def check_combinatorics(argv, result, pinned) -> str | None:
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if pinned.get(" ".join(argv)) != digest:
        return "stdout digest differs from the pinned one"
    return checks.check_counts(argv, stdout)


def run_cli_main(main, argv):
    """nyldon.cli.main(argv) with stdout captured: (exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buffer.getvalue()


def combinatorics(argvs, tracer):
    if tracer is not None:
        tracer.install()
    main = importlib.import_module("nyldon.cli").main
    calls = [(lambda argv=argv: run_cli_main(main, argv)) for argv in argvs]
    results, errors, times, probes, wall = _timed(calls, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    pinned = json.loads(DIGESTS.read_text())
    failures = {i: _failure(errors.get(i), check_combinatorics, argv, results[i], pinned)
                for i, argv in enumerate(argvs)}
    described = [[jobs.GROUPS[argv[0]], "cli." + argv[0], " ".join(argv), 0] for argv in argvs]
    return described, times, probes, wall, failures, rss_kb


def main() -> None:
    workload, listed, traced = sys.argv[1], json.loads(Path(sys.argv[2]).read_text()), sys.argv[3] == "1"
    tracer = Tracer() if traced else None
    run = {"word-ladder": word_ladder, "combinatorics": combinatorics}[workload]
    described, times, probes, wall, failures, rss_kb = run(listed, tracer)
    out = {
        "jobs": described,
        "times": times,
        "probes": probes,
        "wall": wall,
        "rss_kb": rss_kb,
        "failures": {str(i): msg for i, msg in failures.items() if msg},
    }
    if tracer is not None:
        out["stats"] = tracer.summary()
        out["spans"] = tracer.spans
        out["longest"] = list(tracer.longest)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
