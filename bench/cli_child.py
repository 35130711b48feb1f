"""The CLI in a traced child process.

    python bench/cli_child.py <nyldon arguments...>

with ``src`` on PYTHONPATH and NYLDON_BENCH_TRACE_OUT naming a file.
Behaves as ``python -m nyldon.cli`` (same stdout and exit code) with the
layer wrappers installed, and writes the counters and three clock marks
to that file: interpreter up, imports done, and main returned.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import nyldon.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

imported = time.perf_counter()
tracer = Tracer()
tracer.install()
try:
    code = nyldon.cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse usage errors
    code = exc.code
finally:  # a crash still leaves its counters, then exits 1 with its traceback
    finished = time.perf_counter()
    tracer.uninstall()
    with open(os.environ["NYLDON_BENCH_TRACE_OUT"], "w") as out:
        json.dump({"started": started, "imported": imported, "finished": finished,
                   "stats": tracer.summary(), "spans": tracer.spans,
                   "longest": list(tracer.longest)}, out)
sys.exit(code)
