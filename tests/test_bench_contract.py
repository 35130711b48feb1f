"""The benchmark's tracer and pinned outputs still fit this checkout.

`bench/tracer.py` times each layer by rebinding the `module.function`
names in its `LAYERS` table, so renaming or moving one of them breaks
only a traced benchmark run.  This runs the tracer's install and
uninstall in a fresh interpreter, with this checkout's `src` and
`bench` on the path.  The combinatorics workload checks each job's
stdout against a sha256 in `bench/digests.json`; those digests are
checked here too.  Nothing under `bench/` is changed.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_tracer_wraps_every_layer_and_restores_it():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, cwd=ROOT,
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
