"""Shared fixtures: exhaustive membership tables reused across files,
and the environment for tests that run this checkout in a fresh
interpreter.  Also caps the address space of the test process and the
run time of the session."""

import faulthandler
import os
from pathlib import Path

import pytest

from nyldon import Alphabet, is_lyndon, is_nyldon, words_upto

try:
    import resource
except ImportError:  # not on every platform
    resource = None

BINARY = Alphabet(2)
ROOT = Path(__file__).resolve().parents[1]
# the suite peaks near 120 MB; a runaway allocation past this cap raises
# MemoryError in the test that made it instead of getting the run killed
ADDRESS_SPACE_CAP = 2 << 30

if resource is not None:
    _soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if _soft == resource.RLIM_INFINITY or _soft > ADDRESS_SPACE_CAP:  # lower it, never raise it
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, _hard))

# the suite takes under half a minute; a loop that never ends (a slip in
# Duval's step can make one) dumps every thread's traceback and exits 1
# at this many seconds instead of stalling the run
SESSION_SECONDS_CAP = 600


def pytest_configure(config):
    # pytest captures fd 2 while a test runs, so the dump goes to a copy of
    # the stderr that pytest reports to, taken here, while nothing captures it
    faulthandler.dump_traceback_later(SESSION_SECONDS_CAP, exit=True, file=os.dup(2))


@pytest.fixture(scope="session")
def checkout_env():
    """A function of extra paths: a copy of os.environ whose PYTHONPATH
    puts this checkout's src first, then the extra paths, then whatever
    PYTHONPATH already held."""
    def env(*extra):
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), *map(str, extra), os.environ.get("PYTHONPATH")])
        )}
    return env


@pytest.fixture(scope="session")
def binary_nyldon_upto_12():
    """Every binary word of length 1..12 mapped to its Nyldon status."""
    return {w: is_nyldon(w) for w in words_upto(BINARY, 12)}


@pytest.fixture(scope="session")
def binary_lyndon_upto_12():
    return {w: is_lyndon(w) for w in words_upto(BINARY, 12)}
