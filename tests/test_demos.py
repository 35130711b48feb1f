"""Every demo script runs to completion against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script, tmp_path, checkout_env):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=checkout_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
