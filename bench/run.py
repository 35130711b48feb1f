"""The nyldon benchmark.

    python3 bench/run.py --workload <word-ladder|combinatorics|cli> \\
        --seed N --seconds S --trace <0|1>

Run it from the root of a checkout; it needs nothing but ``src/`` and
this directory.  Every workload is a closed loop: one caller in one
process waits for each job before sending the next.  A run

1. compiles ``src/nyldon`` into its bytecode cache, as an installed
   package has it, then times fresh interpreters until
   ``import nyldon, nyldon.cli`` returns (set-up, median of several);
2. repeats the workload's fixed job list, one pass at a time, until the
   passes have measured ``--seconds`` seconds (at least three passes).
   A word-ladder or combinatorics pass runs in a fresh worker process;
   a cli pass starts one subprocess per query;
3. checks every output after its pass, outside the timed region;
4. prints a report and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every timed job and set-up sits between two speed probes
(``bench/probe.py``) and is reported at the probe's reference speed,
scaled with the workload's ``ELASTICITY``; a job's time is the median
over the passes.  The times as measured, not scaled, are in the report,
in ``bench/out/result-<workload>-<seed>.json`` and, with ``--trace 1``,
in the ``raw.*`` per-layer metrics.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` traced and untraced passes alternate: the traced passes
give the per-layer metrics, the untraced ones the tracing overhead and
the ``raw.*`` times, and the spans go to
``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from probe import REFERENCE_S, normalize, probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("word-ladder", "combinatorics", "cli")
SETUP_SAMPLES = 11
MIN_PASSES = 3  # of each kind; three cli passes make 315 invocations
# How far a workload's jobs follow the probe's slow-down (see probe.normalize):
# the slope of log job time against log probe time that
# `python3 bench/tools.py elasticity <workload>` fits on the reference machine.
# Word-ladder fitted 0.52 and 0.62: is_lyndon and lyndon_conjugate build all n
# rotations of words of up to 4k letters, and that work slows less than the
# probe's small tuples.  Combinatorics and cli fitted 0.83 and 0.80, but their
# ten-seed spreads were smaller scaled in full (1.0) than at those values, so
# they stay at 1.0, as does set-up.
ELASTICITY = {"word-ladder": 0.55, "combinatorics": 1.0, "cli": 1.0}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nyldon, nyldon.cli; "
                "print(time.perf_counter() - t, flush=True)")
# layers every workload calls, so their seconds are never an idle zero
ALWAYS_BUSY = ("words.is_primitive", "lyndon.is_lyndon", "lyndon.lyndon_factorize",
               "factorization.nyldon_factorize", "factorization.is_nyldon")


class BenchError(RuntimeError):
    """The run could not measure (as opposed to a wrong output)."""


def child_env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def first_line(argv: list[str], env: dict) -> tuple[float, str]:
    """Seconds from spawning argv until it prints its first line, and the line."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise BenchError(f"{argv[1:]} exited with {proc.returncode}")
    return elapsed, line


def measure_setup(env: dict) -> dict:
    """Fresh interpreters importing nyldon (set-up), and bare ones,
    interleaved, with a speed probe between consecutive spawns."""
    first_line([sys.executable, "-c", IMPORT_PROBE], env)  # warm-up, untimed
    setup, imports, interp, probes = [], [], [], [probe()]
    for _ in range(SETUP_SAMPLES):
        elapsed, line = first_line([sys.executable, "-c", IMPORT_PROBE], env)
        setup.append(elapsed)
        imports.append(float(line))
        probes.append(probe())
        interp.append(first_line([sys.executable, "-c", "print(0, flush=True)"], env)[0])
        probes.append(probe())
    return {"setup": normalize(setup, probes[::2]), "raw_setup": setup,
            "import": normalize(imports, probes[::2]), "interp": normalize(interp, probes[1::2])}


def worker_pass(workload: str, jobs_file: Path, traced: bool, env: dict) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(jobs_file), str(int(traced))]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def merge_stats(into: dict, stats: dict) -> None:
    for name, row in stats.items():
        target = into.setdefault(name, dict.fromkeys(row, 0))
        for key, value in row.items():
            target[key] += value


def cli_pass(invocations, traced: bool, env: dict) -> dict:
    """One subprocess per query; a traced pass runs bench/cli_child.py."""
    import checks

    trace_file = OUT / "cli-child.json"
    if traced:
        env = dict(env, NYLDON_BENCH_TRACE_OUT=str(trace_file))
        prefix = [sys.executable, str(BENCH / "cli_child.py")]
    else:
        prefix = [sys.executable, "-m", "nyldon.cli"]
    times, outputs, children, probes = [], [], [], [probe()]
    start = time.perf_counter()
    probing = 0.0
    for inv in invocations:
        t = time.perf_counter()
        proc = subprocess.run(prefix + inv.argv, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, env=env, text=True)
        done = time.perf_counter()
        times.append(done - t)
        outputs.append((proc.returncode, proc.stdout))
        if traced:
            children.append((t, done, json.loads(trace_file.read_text())))
            trace_file.unlink()
        probes.append(probe())
        probing += time.perf_counter() - done
    wall = time.perf_counter() - start - probing
    failures = {str(i): msg for i, (inv, (code, stdout)) in enumerate(zip(invocations, outputs))
                if (msg := checks.check_exit(inv.code, inv.stdout, code, stdout))}
    out = {"jobs": [[inv.argv[0], "cli." + inv.argv[0], " ".join(inv.argv), 0]
                    for inv in invocations],
           "times": times, "probes": probes, "wall": wall, "failures": failures}
    if traced:
        stats, spans, longest = {}, [], ()
        for i, (t, done, child) in enumerate(children):
            merge_stats(stats, child["stats"])
            base = len(spans)
            spans += [[name, s - t, e - t, None if parent is None else base + parent, i]
                      for name, s, e, parent, _ in child["spans"]]
            longest = max(longest, tuple(child["longest"]), key=len)
        out.update(stats=stats, spans=spans, longest=list(longest),
                   # interpreter start-up, imports and exit of every child
                   startup=sum((c["imported"] - t) + (done - c["finished"])
                               for t, done, c in children))
    return out


def run_passes(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> list[dict]:
    import jobs

    if workload == "cli":
        invocations = jobs.cli(seed)
        subprocess.run([sys.executable, "-m", "nyldon.cli", "test", "10"], env=env,
                       stdout=subprocess.DEVNULL, check=True)
        one = lambda traced: cli_pass(invocations, traced, env)  # noqa: E731
    else:
        if workload == "word-ladder":
            listed = [[j.job_class, j.function, j.shape, "".join(map(str, j.word))]
                      for j in jobs.word_ladder(seed)]
        else:
            listed = jobs.combinatorics(seed)
        jobs_file = OUT / f"jobs-{workload}-{seed}.json"
        jobs_file.write_text(json.dumps(listed))
        one = lambda traced: worker_pass(workload, jobs_file, traced, env)  # noqa: E731
    passes, measured = [], 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        result = one(traced)
        result["traced"] = traced
        passes.append(result)
        measured += result["wall"]
        kinds = [p for p in passes if p["traced"] == traced]
        if measured >= seconds and len(kinds) >= MIN_PASSES and (not trace or traced):
            return passes


# ---- metrics ---------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values)


def class_times(jobs: list, times: list[float]) -> dict:
    out = {}
    for (job_class, *_), t in zip(jobs, times):
        out[job_class] = out.get(job_class, 0.0) + t
    return out


def job_seconds(passes: list[dict], elasticity: float) -> list[float]:
    """Each job's time, median over the passes, at the probe's reference
    speed with the given elasticity (bench/probe.py); 0 gives the times
    as measured."""
    times = [normalize(p["times"], p["probes"], elasticity) for p in passes]
    return [median(per_job) for per_job in zip(*times)]


def time_metrics(setup: list[float], samples: list[float]) -> dict:
    # p75: the highest quartile with at least ten jobs beyond it on every workload
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (sum(samples), "s"),
        "job_p50_ms": (1000 * median(samples), "ms"),
        "job_p75_ms": (1000 * statistics.quantiles(samples, n=4, method="inclusive")[2], "ms"),
    }


def end_to_end(workload: str, setup: dict, untraced: list[dict]) -> dict:
    metrics = time_metrics(setup["setup"], job_seconds(untraced, ELASTICITY[workload]))
    # a worker reports its own peak; for cli, the largest subprocess so far
    rss_kb = (median(p["rss_kb"] for p in untraced) if "rss_kb" in untraced[0]
              else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return metrics


def as_measured(setup: dict, untraced: list[dict]) -> dict:
    """The time metrics of end_to_end without the probe's scaling, and the
    median probe, as raw.<name>."""
    metrics = time_metrics(setup["raw_setup"], job_seconds(untraced, 0.0))
    metrics["probe_ms"] = (1000 * median(x for p in untraced for x in p["probes"]), "ms")
    return {f"raw.{name}": value for name, value in metrics.items()}


def peak_alloc_mb(word) -> float:
    """tracemalloc peak of one untimed is_lyndon call on the word."""
    if not word:
        return 0.0
    from nyldon.lyndon import is_lyndon

    tracemalloc.start()
    try:
        is_lyndon(tuple(word))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def per_layer(workload: str, setup: dict, untraced: list[dict],
              traced: list[dict]) -> tuple[dict, dict]:
    """The per-layer metrics, and which counts repeated exactly across passes."""
    from tracer import LAYER_NAMES, YIELD_TESTS

    metrics, exact = {}, {}
    for name in LAYER_NAMES:
        calls = [p["stats"][name]["calls"] for p in traced]
        exact[f"{name}.calls"] = len(set(calls)) == 1
        metrics[f"{name}.calls"] = (calls[0], "count")
        metrics[f"{name}.self_share"] = (
            median(p["stats"][name]["self_s"] / p["wall"] for p in traced), "ratio")
        if name in ALWAYS_BUSY:
            for key in ("busy_s", "self_s"):
                metrics[f"{name}.{key}"] = (median(p["stats"][name][key] for p in traced), "s")
        if name in YIELD_TESTS:
            ratios = [p["stats"][name]["returned"] / p["stats"][name]["tests"]
                      if p["stats"][name]["tests"] else 0.0 for p in traced]
            exact[f"{name}.yield_ratio"] = len(set(ratios)) == 1
            metrics[f"{name}.yield_ratio"] = (ratios[0], "ratio")
    words = [p["stats"]["lazard.lazard_run"]["snapshot_words"] for p in traced]
    exact["lazard.lazard_run.snapshot_words"] = len(set(words)) == 1
    metrics["lazard.lazard_run.snapshot_words"] = (words[0], "count")
    longest = max((p["longest"] for p in traced), key=len)
    metrics["lyndon.is_lyndon.peak_alloc_mb"] = (peak_alloc_mb(longest), "MB")
    metrics["cli.import_s"] = (median(setup["import"]), "s")
    metrics["cli.interp_s"] = (median(setup["interp"]), "s")

    def share(p, part):
        return part / p["wall"]

    harness = [share(p, p["wall"] - sum(p["times"])) for p in traced]
    startup = [share(p, p.get("startup", 0.0)) for p in traced]
    accounted = [share(p, sum(row["self_s"] for row in p["stats"].values())
                       + p["wall"] - sum(p["times"]) + p.get("startup", 0.0)) for p in traced]
    metrics["cli.startup_share"] = (median(startup), "ratio")
    metrics["trace.harness_share"] = (median(harness), "ratio")
    metrics["trace.accounted_share"] = (median(accounted), "ratio")
    metrics["trace.overhead_ratio"] = (sum(job_seconds(traced, ELASTICITY[workload]))
                                       / sum(job_seconds(untraced, ELASTICITY[workload])), "ratio")
    metrics.update(as_measured(setup, untraced))
    return metrics, exact


def exponents(traced: list[dict]) -> dict:
    """Growth exponent per (function, shape) ladder, from the traced root spans."""
    from tracer import growth_exponent

    per_job: dict[int, list[float]] = {}
    for p in traced:
        for name, start, end, parent, job in p["spans"]:
            if parent is None:
                per_job.setdefault(job, []).append(end - start)
    ladders: dict[str, list] = {}
    for job, durations in per_job.items():
        _, function, shape, n = traced[0]["jobs"][job]
        if n:
            ladders.setdefault(f"{function}.exp.{shape}", []).append((n, median(durations)))
    return {name: growth_exponent(points) for name, points in sorted(ladders.items())
            if len(points) >= 3}


def entry_shares(p: dict) -> dict:
    """Share of a traced pass's wall time inside library entry spans (those
    the harness or a CLI subcommand called), by module; the enumerate_*
    functions form their own group."""
    spans, out = p["spans"], {}
    for name, start, end, parent, _ in spans:
        if name.startswith("cli.") or not (parent is None or spans[parent][0].startswith("cli.")):
            continue
        group = "enumeration" if ".enumerate_" in name else name.split(".")[0]
        out[group] = out.get(group, 0.0) + (end - start) / p["wall"]
    return out


# ---- report ----------------------------------------------------------------

def report(workload, seed, setup, passes, trace, metrics, exact, exps) -> None:
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    jobs_per_pass = len(passes[0]["times"])
    print(f"workload {workload}, seed {seed}: {len(untraced)} untraced and "
          f"{len(passes) - len(untraced)} traced passes of {jobs_per_pass} jobs")
    print(f"fail_ratio {failed / attempted:.4g} ({failed} of {attempted} job runs failed)")
    for p in passes:
        for i, msg in sorted(p["failures"].items(), key=lambda kv: int(kv[0]))[:5]:
            print(f"  FAILED {' '.join(map(str, p['jobs'][int(i)][:4]))}: {msg}")
    best = f"{jobs_per_pass} jobs, each the median of {len(untraced)} passes"
    counts = {"setup_s": f"median of {len(setup['setup'])} interpreters",
              "wall_s": f"sum over {best}",
              "job_p50_ms": best,
              "job_p75_ms": best,
              "peak_rss_mb": "worker process, median of passes" if "rss_kb" in untraced[0]
              else "largest CLI subprocess"}
    if not trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<14} {value:12.6g} {unit:<5} ({counts[name]})")
        print("times are at the probe's reference speed; as measured, with the median probe "
              f"against its reference {1000 * REFERENCE_S:.4g} ms:")
        for name, (value, unit) in as_measured(setup, untraced).items():
            print(f"  {name:<18} {value:12.6g} {unit}")
        samples = job_seconds(untraced, ELASTICITY[workload])
        print(f"job p90 {1000 * statistics.quantiles(samples, n=10, method='inclusive')[8]:.6g} ms"
              f" ({len(samples)} jobs; not gated)")
        print(f"job classes (sum over the class's jobs, each the median of {len(untraced)} passes):")
        for job_class, seconds in class_times(passes[0]["jobs"], samples).items():
            print(f"  {job_class + '_s':<24} {seconds:10.4f}")
        return
    traced = [p for p in passes if p["traced"]]
    print(f"traced wall_s {median(p['wall'] for p in traced):.4f} s against untraced "
          f"{median(p['wall'] for p in untraced):.4f} s")
    print(f"{'layer':<42}{'calls':>10}{'busy_s':>10}{'self_s':>10}{'self %':>8}")
    for name in sorted(traced[0]["stats"], key=lambda n: -traced[0]["stats"][n]["self_s"]):
        calls = metrics[f"{name}.calls"][0]
        busy = median(p["stats"][name]["busy_s"] for p in traced)
        own = median(p["stats"][name]["self_s"] for p in traced)
        mark = "" if exact[f"{name}.calls"] else " (calls vary)"
        print(f"  {name:<40}{calls:>10}{busy:>10.4f}{own:>10.4f}"
              f"{100 * metrics[f'{name}.self_share'][0]:>8.2f}{mark}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_share", ".busy_s", ".self_s")):
            tag = " [exact]" if exact.get(name) else ""
            print(f"{name:<42} {value:12.6g} {unit}{tag}")
    shares = [entry_shares(p) for p in traced]
    groups = sorted({g for s in shares for g in s}, key=lambda g: -shares[0].get(g, 0.0))
    print("library entry spans, share of traced wall: " + ", ".join(
        f"{g} {100 * median(s.get(g, 0.0) for s in shares):.1f}%" for g in groups))
    print("exact counts, identical in every traced pass: "
          + ("yes" if all(exact.values()) else "NO: " + ", ".join(k for k, v in exact.items() if not v)))
    for name, value in exps.items():
        print(f"  {name:<60} {value:6.2f}")


def prepare() -> dict:
    """Ready this process for timing; returns the children's environment."""
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # one core for the harness and every child, so each speed probe reads
    # the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the bytecode cache an installed package has; with PYTHONDONTWRITEBYTECODE
    # set, every child would otherwise compile nyldon from source, and a
    # traced CLI child the tracer, which would count as CLI start-up
    compileall.compile_dir(str(SRC / "nyldon"), quiet=1)
    compileall.compile_file(str(BENCH / "tracer.py"), quiet=1)
    return child_env()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "nyldon" / "cli.py").is_file():
        print(f"error: no nyldon sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = prepare()
    try:
        setup = measure_setup(env)
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    exps, exact = {}, {}
    if args.trace:
        metrics, exact = per_layer(args.workload, setup, untraced, traced)
        exps = exponents(traced)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "exponents": exps,
            "metrics": metrics, "exact": exact, "passes": passes}))
    else:
        metrics = end_to_end(args.workload, setup, untraced)
        # the unscaled figures, for checking a gain against time as measured
        (OUT / f"result-{args.workload}-{args.seed}.json").write_text(json.dumps(
            {name: value for name, (value, _) in as_measured(setup, untraced).items()}))
    report(args.workload, args.seed, setup, passes, args.trace, metrics, exact, exps)
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
