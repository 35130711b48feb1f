"""Maintenance commands for the benchmark, run from the root of a checkout.

    python3 bench/tools.py pin
        Rewrite bench/digests.json: the sha256 of each combinatorics
        argv's stdout at the current commit.  Only for a change that
        alters those outputs on purpose.
    python3 bench/tools.py baseline [--out F]
        Run every workload ten times, seeds 1..10, for BENCHMARK.json's
        run_seconds each; print each end-to-end metric's median,
        quartiles and spread ((q3 - q1) / median), and the same for the
        times as measured (raw.*); write them with the environment to F
        as JSON.
    python3 bench/tools.py roadmap-table
        Time the operations of the ROADMAP baseline table, median of
        three runs each, and print the table in Markdown.
    python3 bench/tools.py elasticity <workload>
        Repeat the workload's untraced passes (seed 1) for 90 seconds
        and fit how far its job times follow the speed probe: the slope
        of log job time against log probe time within each job, pooled
        and weighted by job time, per job class and for the workload.
        ELASTICITY in bench/run.py is set from these fits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
SEEDS = range(1, 11)
REPEATS = 3


def pin() -> None:
    import jobs
    from worker import run_cli_main
    from nyldon.cli import main

    digests = {}
    for argv in jobs.COMBINATORICS:
        code, stdout = run_cli_main(main, argv)
        if code != 0:
            raise SystemExit(f"{argv} exited with {code}")
        digests[" ".join(argv)] = hashlib.sha256(stdout.encode()).hexdigest()
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    print(f"pinned {len(digests)} digests")


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "values": values}


def baseline(out: str | None) -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = {"environment": environment(), "runs": len(SEEDS), "seconds": seconds,
               "seeds": list(SEEDS), "trace": 0, "workloads": {}}
    for workload in run.WORKLOADS:
        per_metric: dict[str, list[float]] = {}
        attempted = failed = 0
        passes = []
        for seed in SEEDS:
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
            last = json.loads(proc.stdout.splitlines()[-1])
            passes.append(int(re.search(r"(\d+) untraced", proc.stdout).group(1)))
            attempted += last["attempted"]
            failed += last["failed"]
            raw = json.loads((run.OUT / f"result-{workload}-{seed}.json").read_text())
            values = {name: m["value"] for name, m in last["metrics"].items()} | raw
            for name, value in values.items():
                per_metric.setdefault(name, []).append(value)
        rows = {name: spread(values) for name, values in per_metric.items()}
        results["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                          "untraced_passes_per_run": passes, "metrics": rows}
        print(f"{workload}: {failed} of {attempted} job runs failed; untraced passes per run {passes}")
        for name, row in rows.items():
            print(f"  {name:<44} median {row['median']:12.6g}  q1 {row['q1']:12.6g}"
                  f"  q3 {row['q3']:12.6g}  spread {row['spread']:.4f}")
    if out:
        Path(out).write_text(json.dumps(results, indent=1) + "\n")


def roadmap_table() -> None:
    from nyldon import (Alphabet, enumerate_lyndon, enumerate_nyldon, is_circular_bounded,
                        is_lyndon, lazard_run, longest_nyldon_suffix, lyndon_factorize,
                        melancon_nyldon_conjugate, nyldon_code, nyldon_comma_free_table,
                        nyldon_factorize)
    import random

    rng = random.Random(8000)
    word = tuple(rng.randrange(2) for _ in range(8000))
    code6 = nyldon_code(Alphabet(2), 6)
    rows = [
        ("`is_lyndon`", "random binary, n=8000", [lambda: is_lyndon(word)]),
        ("`lyndon_factorize`", "same word", [lambda: lyndon_factorize(word)]),
        ("`nyldon_factorize`", "`1·0^(n-1)`, n=4k / 16k / 64k",
         [lambda n=n: nyldon_factorize((1,) + (0,) * (n - 1)) for n in (4096, 16384, 65536)]),
        ("`melancon_nyldon_conjugate`", "`0^(n-1)·1`, n=1k / 2k / 4k",
         [lambda n=n: melancon_nyldon_conjugate((0,) * (n - 1) + (1,)) for n in (1024, 2048, 4096)]),
        ("`longest_nyldon_suffix(proper=True)`", "`1·0^(n-1)`, n=1000",
         [lambda: longest_nyldon_suffix((1,) + (0,) * 999, proper=True)]),
        ("`enumerate_nyldon`", "k=2, lengths up to 18", [lambda: enumerate_nyldon(Alphabet(2), 18)]),
        ("`enumerate_lyndon`", "k=2, lengths up to 18", [lambda: enumerate_lyndon(Alphabet(2), 18)]),
        ("`lazard_run` right/min", "k=2, n=12", [lambda: lazard_run("right", "min", Alphabet(2), 12)]),
        ("`is_circular_bounded`", "binary Nyldon code, n=6", [lambda: is_circular_bounded(code6, 6)]),
        ("`nyldon_comma_free_table`", "5×8", [lambda: nyldon_comma_free_table(5, 8)]),
    ]
    from probe import REFERENCE_S, probe

    env = environment()
    print(f"Python {env['python']}, nproc {env['nproc']}, {env['cpu']}, commit {env['commit'][:12]};"
          f" median of {REPEATS} runs each, as measured (speed probe {1000 * probe():.3g} ms"
          f" against {1000 * REFERENCE_S:.3g} ms unloaded).\n")
    print("| operation | input | time |\n|---|---|---|")
    for operation, inputs, calls in rows:
        cells = []
        for call in calls:
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            t = statistics.median(times)
            cells.append(f"{t * 1000:.1f} ms" if t < 1 else f"{t:.2f} s")
        print(f"| {operation} | {inputs} | {' / '.join(cells)} |")


def elasticity(workload: str) -> None:
    passes = run.run_passes(workload, 1, 90, False, run.prepare())
    # per job: (log probe around it, log time) in each pass
    points = [[(math.log((p["probes"][j] + p["probes"][j + 1]) / 2), math.log(p["times"][j]))
               for p in passes] for j in range(len(passes[0]["times"]))]
    sums: dict[str, list[float]] = {}
    for (job_class, *_), job in zip(passes[0]["jobs"], points):
        weight = statistics.median(math.exp(y) for _, y in job)
        mx, my = statistics.fmean(x for x, _ in job), statistics.fmean(y for _, y in job)
        for name in (job_class, workload):
            row = sums.setdefault(name, [0.0, 0.0])
            row[0] += weight * sum((x - mx) * (y - my) for x, y in job)
            row[1] += weight * sum((x - mx) ** 2 for x, _ in job)
    probes = [x for p in passes for x in p["probes"]]
    print(f"{len(passes)} passes; probe {1000 * min(probes):.3g} to {1000 * max(probes):.3g} ms")
    for name, (cov, var) in sums.items():
        print(f"  {name:<24} elasticity {cov / var:.2f}" if var else f"  {name:<24} no spread")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pin")
    sub.add_parser("baseline").add_argument("--out")
    sub.add_parser("roadmap-table")
    sub.add_parser("elasticity").add_argument("workload", choices=run.WORKLOADS)
    args = parser.parse_args()
    if args.command == "pin":
        pin()
    elif args.command == "baseline":
        baseline(args.out)
    elif args.command == "elasticity":
        elasticity(args.workload)
    else:
        roadmap_table()


if __name__ == "__main__":
    main()
