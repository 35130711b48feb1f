"""Shared fixtures: exhaustive membership tables reused across files,
and the environment for tests that run this checkout in a fresh
interpreter.  Also caps the address space of the test process."""

import os
from pathlib import Path

import pytest

from nyldon import Alphabet, is_lyndon, is_nyldon

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
    return {w: is_nyldon(w) for w in BINARY.words_upto(12)}


@pytest.fixture(scope="session")
def binary_lyndon_upto_12():
    return {w: is_lyndon(w) for w in BINARY.words_upto(12)}
