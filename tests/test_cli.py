"""End-to-end command-line behavior: golden outputs and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

from nyldon.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_factorize(capsys):
    assert run(capsys, "factorize", "10100") == (0, "10|100\n", "")
    assert run(capsys, "factorize", "1001", "--family", "lyndon") == (
        0, "1|001\n", "",
    )


def test_factorize_json(capsys):
    code, out, err = run(capsys, "factorize", "10100", "--json")
    assert code == 0
    assert json.loads(out) == {
        "word": "10100",
        "factors": ["10", "100"],
        "family": "nyldon",
    }


def test_membership(capsys):
    assert run(capsys, "test", "10110") == (0, "true\n", "")
    assert run(capsys, "test", "1010") == (0, "false\n", "")
    assert run(capsys, "test", "01", "--family", "lyndon") == (0, "true\n", "")


def test_enumerate(capsys):
    assert run(capsys, "enumerate", "-k", "2", "--max-len", "3") == (
        0, "0 1 10 100 101\n", "",
    )
    code, out, err = run(
        capsys, "enumerate", "-k", "2", "--max-len", "2", "--family", "lyndon"
    )
    assert (code, out) == (0, "0 1 01\n")


def test_conjugate(capsys):
    assert run(capsys, "conjugate", "01") == (0, "10\n", "")
    assert run(capsys, "conjugate", "01111011011111011110111", "--verify") == (
        0, "10111101101111101111011\n", "",
    )


def test_conjugate_verify_reports_a_disagreement(capsys, monkeypatch):
    # 0010 is a rotation of the Nyldon word 1000, but not the Nyldon one
    monkeypatch.setattr("nyldon.cli.melancon_nyldon_conjugate", lambda v: (0, 0, 1, 0))
    code, out, err = run(capsys, "conjugate", "0001", "--verify")
    assert (code, out) == (1, "")
    assert err == "error: methods disagree on 0001: melancon 0010, brute force 1000\n"


def test_conjugate_rejects_powers(capsys):
    code, out, err = run(capsys, "conjugate", "0101")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_count(capsys):
    code, out, err = run(capsys, "count", "-k", "2", "-n", "5")
    assert (code, out) == (0, "1 2\n2 1\n3 2\n4 3\n5 6\n")


def test_count_with_formula_column(capsys):
    code, out, err = run(capsys, "count", "-k", "2", "-n", "3", "--check-formula")
    assert (code, out) == (0, "1 2 2\n2 1 1\n3 2 2\n")


def test_lazard_summary_line(capsys):
    code, out, err = run(
        capsys, "lazard", "--side", "right", "--select", "min", "-k", "2", "-n", "3"
    )
    assert (code, out) == (0, "0 1 10 100 101\n")


def test_lazard_trace_format(capsys):
    code, out, err = run(
        capsys, "lazard", "--side", "left", "--select", "min", "-k", "2",
        "-n", "2", "--trace",
    )
    assert (code, out) == (0, "1 | 0 1 | 0\n2 | 01 1 | 01\n3 | 1 | 1\n")


def test_lazard_trace_sorts_each_working_set(capsys):
    # at n=4 the recorded working sets are unordered, so the sort is the
    # printer's; the expected text is the output of the sorted records
    code, out, err = run(
        capsys, "lazard", "--side", "right", "--select", "min", "-k", "2",
        "-n", "4", "--trace",
    )
    assert (code, out) == (0, (
        "1 | 0 1 | 0\n"
        "2 | 1 10 100 1000 | 1\n"
        "3 | 10 100 1000 1001 101 1011 | 10\n"
        "4 | 100 1000 1001 101 1011 | 100\n"
        "5 | 1000 1001 101 1011 | 1000\n"
        "6 | 1001 101 1011 | 1001\n"
        "7 | 101 1011 | 101\n"
        "8 | 1011 | 1011\n"
    ))
    for line in out.splitlines():
        working_set = line.split(" | ")[1].split()
        assert working_set == sorted(working_set)


def test_lazard_under_reversed_order(capsys):
    code, out, err = run(
        capsys, "lazard", "--side", "right", "--select", "max", "-k", "2",
        "-n", "2", "--perm", "reverse",
    )
    assert (code, out) == (0, "0 10 1\n")


def test_lazard_reversed_trace_sorts_each_working_set(capsys):
    # the run under the reversed order, printed from the relabeled plain
    # run; each working set is relabeled before it is sorted
    code, out, err = run(
        capsys, "lazard", "--side", "right", "--select", "max", "-k", "2",
        "-n", "4", "--perm", "reverse", "--trace",
    )
    assert (code, out) == (0, (
        "1 | 0 1 | 0\n"
        "2 | 1 10 100 1000 | 1000\n"
        "3 | 1 10 100 | 100\n"
        "4 | 1 10 1100 | 10\n"
        "5 | 1 110 1100 | 1100\n"
        "6 | 1 110 | 110\n"
        "7 | 1 1110 | 1110\n"
        "8 | 1 | 1\n"
    ))
    for line in out.splitlines():
        working_set = line.split(" | ")[1].split()
        assert working_set == sorted(working_set)


def test_codes_comma_free_yes(capsys):
    code, out, err = run(capsys, "codes", "comma-free", "-k", "2", "-n", "4")
    assert (code, out) == (0, "comma-free: yes\n")


def test_codes_comma_free_witness(capsys):
    code, out, err = run(capsys, "codes", "comma-free", "-k", "4", "-n", "2")
    assert (code, out) == (0, "comma-free: no\nwitness: 3(21)0 = (32)(10)\n")


def test_codes_circular(capsys):
    code, out, err = run(capsys, "codes", "circular", "-k", "2", "-n", "2")
    assert (code, out) == (
        0, "circular (bounded search, messages up to 8 letters): yes\n",
    )
    code, out, err = run(
        capsys, "codes", "circular", "-k", "2", "-n", "3", "--bound", "6"
    )
    assert (code, out) == (
        0, "circular (bounded search, messages up to 6 letters): yes\n",
    )
    # two codewords never need more than two blocks, whatever the bound
    code, out, err = run(
        capsys, "codes", "circular", "-k", "2", "-n", "3", "--bound", "1000"
    )
    assert (code, out) == (
        0, "circular (bounded search, messages up to 1000 letters): yes\n",
    )


def test_bijection_rows(capsys):
    code, out, err = run(capsys, "bijection", "-k", "2", "-n", "2")
    assert (code, out) == (0, "00 11\n10 01\n11 00\n")


def test_powers(capsys):
    code, out, err = run(capsys, "powers", "10", "--max-exp", "3")
    assert (code, out) == (0, "1 10\n2 10|10\n3 10|10|10\n")


def test_empty_word_is_a_domain_error(capsys):
    code, out, err = run(capsys, "factorize", "")
    assert code == 1
    assert err.startswith("error:")


def test_malformed_word_is_a_domain_error(capsys):
    # only ASCII decimals are letters; int() alone would read all but
    # the first of these ("\u0661\u0660" is 10 in Arabic-Indic digits)
    for text in ("10a0", "\u0661\u0660", "1_0,1", " 1,0", "+1,0"):
        for command in ("factorize", "test", "conjugate"):
            code, out, err = run(capsys, command, text)
            assert (code, out) == (1, ""), (command, text)
            assert err.startswith("error:"), (command, text)


def test_sizes_below_one_are_domain_errors(capsys):
    for argv in (
        ["enumerate", "-k", "2", "--max-len", "0"],
        ["enumerate", "-k", "2", "--max-len", "-1", "--family", "lyndon"],
        ["count", "-k", "2", "-n", "0"],
        ["count", "-k", "2", "-n", "-1", "--family", "lyndon"],
        ["lazard", "--side", "left", "--select", "min", "-k", "2", "-n", "0"],
        ["codes", "comma-free", "-k", "2", "-n", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:"), argv


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-k", "2"])  # missing --max-len
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["factorize", "10", "--family", "weird"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["conjugate", "001", "--method", "bruteforce"])  # no such option
    assert exc.value.code == 2
    capsys.readouterr()


ROOT = Path(__file__).resolve().parents[1]


def checkout_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def test_codes_circular_refuses_work_past_its_budget(tmp_path):
    # 48 codewords over four blocks would be 5.4 million messages; the
    # search must refuse before it starts, not run for minutes
    proc = subprocess.run(
        [sys.executable, "-m", "nyldon.cli", "codes", "circular", "-k", "3", "-n", "5"],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:")
    assert "48 codewords" in proc.stderr and "100000" in proc.stderr


@pytest.mark.parametrize("argv, names", [
    (["enumerate", "-k", "2", "--max-len", "40"], ("k=2", "n=40", "300000 words")),
    (["enumerate", "-k", "3", "--max-len", "30", "--family", "lyndon"],
     ("k=3", "n=30", "300000 words")),
    (["count", "-k", "1", "-n", "1000000000"], ("k=1", "n=1000000000", "300000 words")),
    (["bijection", "-k", "2", "-n", "40"], ("k=2", "n=40", "131072 words")),
    (["lazard", "--side", "right", "--select", "min", "-k", "2", "-n", "30"],
     ("k=2", "n=30", "6500000 snapshot words")),
])
def test_size_commands_refuse_work_past_their_budgets(tmp_path, argv, names):
    # each of these would run for hours or exhaust memory; the command
    # must refuse before it starts
    proc = subprocess.run(
        [sys.executable, "-m", "nyldon.cli", *argv],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:")
    assert all(name in proc.stderr for name in names), proc.stderr


def test_console_script_is_installed(tmp_path):
    """The declared `nyldon` console script runs this checkout's code.

    The entry point is read from pyproject.toml and run in a fresh
    interpreter the way the installed wrapper runs it, with this
    checkout's `src` first on the path, so neither a missing install
    nor a stale one elsewhere on PATH decides the outcome.
    """
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "nyldon" in scripts
    module, _, func = scripts["nyldon"].partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'nyldon'\n"
        f"sys.exit({func}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "test", "10110"],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "true\n"
