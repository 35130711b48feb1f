"""The benchmark's tracer and pinned outputs still fit this checkout.

`bench/tracer.py` times each layer by rebinding the `module.function`
names in its `LAYERS` table, so renaming or moving one of them breaks
only a traced benchmark run.  This runs the tracer's install and
uninstall in a fresh interpreter, with this checkout's `src` and
`bench` on the path, and so does `bench/selftest.py`.  The
combinatorics workload checks each job's stdout against a sha256 in
`bench/digests.json`; those digests are checked here too.  The library
names that `bench/jobs.py` and `bench/tools.py` import, and the keywords
they call them with, are checked against the package, and the job lists
are built once.  Nothing under `bench/` is changed.
"""

import ast
import contextlib
import hashlib
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nyldon
from nyldon.cli import main

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
import nyldon.cli
from tracer import LAYERS, Tracer

modules = {name: m for name, m in sys.modules.items() if name.startswith("nyldon")}
before = {name: dict(vars(m)) for name, m in modules.items()}
tracer = Tracer()
tracer.install()
for module, function, _ in LAYERS:
    fn = getattr(modules[f"nyldon.{module}"], function)
    if getattr(fn, "__wrapped__", None) is not before[f"nyldon.{module}"][function]:
        sys.exit(f"nyldon.{module}.{function} is not wrapped")
if nyldon.cli.main.__wrapped__ is not before["nyldon.cli"]["main"]:
    sys.exit("nyldon.cli.main is not wrapped")
tracer.uninstall()
for name, m in modules.items():
    for attr, value in before[name].items():
        if vars(m)[attr] is not value:
            sys.exit(f"{name}.{attr} was not restored")
"""


@pytest.fixture
def run_with_bench_on_path(checkout_env):
    def run(script):
        return subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=checkout_env(ROOT / "bench"), cwd=ROOT,
        )
    return run


def test_tracer_wraps_every_layer_and_restores_it(run_with_bench_on_path):
    proc = run_with_bench_on_path(SCRIPT)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", ["jobs.py", "tools.py"])
def test_bench_library_calls_bind_to_their_signatures(script):
    # a removed name or keyword (say longest_nyldon_suffix's proper flag)
    # would break only a benchmark run or `tools.py roadmap-table`
    tree = ast.parse((ROOT / "bench" / script).read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "nyldon"
        for alias in node.names
    }
    assert names, f"bench/{script} imports nothing from nyldon"
    assert sorted(n for n in names if not hasattr(nyldon, n)) == []
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names
    ]
    unbound = []
    for call in calls:
        positional = 0 if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            inspect.signature(getattr(nyldon, call.func.id)).bind_partial(*[None] * positional, **keywords)
        except TypeError as exc:
            unbound.append(f"bench/{script}:{call.lineno} {call.func.id}: {exc}")
    assert unbound == []


def test_bench_job_lists_build(run_with_bench_on_path):
    proc = run_with_bench_on_path(
        "import sys, jobs\n"
        "if not (jobs.word_ladder(1) and jobs.cli(1)):\n"
        "    sys.exit('an empty job list')\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_selftest_passes(checkout_env):
    # among its checks: tracing rebinds is_nyldon in every module that binds it
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")], capture_output=True, text=True,
        env=checkout_env(ROOT / "bench"), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr


def test_combinatorics_outputs_match_their_pinned_digests():
    pinned = json.loads((ROOT / "bench" / "digests.json").read_text())
    differ = []
    for key, digest in pinned.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(key.split(" "))
        if code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != digest:
            differ.append(key)
    assert not differ, differ
