"""End-to-end command-line behavior: golden outputs and exit codes."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

from nyldon import (
    Alphabet, apply_permutation, count_by_length, lazard_run, reverse_permutation,
)
from nyldon.cli import build_parser, main


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
    # the error names the word as typed, in either notation
    for text in ("0101", "010101", "0,0", "2,10,2,10"):
        for verify in ((), ("--verify",)):
            assert run(capsys, "conjugate", text, *verify) == (
                1, "", f"error: {text} is not primitive: only primitive words have a Nyldon conjugate\n",
            )


def test_count(capsys):
    code, out, err = run(capsys, "count", "-k", "2", "-n", "5")
    assert (code, out) == (0, "1 2\n2 1\n3 2\n4 3\n5 6\n")


def test_count_with_formula_column(capsys):
    code, out, err = run(capsys, "count", "-k", "2", "-n", "3", "--check-formula")
    assert (code, out) == (0, "1 2 2\n2 1 1\n3 2 2\n")


def test_count_check_formula_reports_a_mismatch(capsys, monkeypatch):
    # a formula that is wrong at length 3 only: the rows up to that length
    # are printed, then the command stops with one error line
    from nyldon.oracle import necklace_count
    monkeypatch.setattr("nyldon.cli.necklace_count", lambda k, n: necklace_count(k, n) + (n == 3))
    code, out, err = run(capsys, "count", "-k", "2", "-n", "5", "--check-formula")
    assert (code, out) == (1, "1 2 2\n2 1 1\n3 2 3\n")
    assert err == "error: count 2 differs from formula value 3 at length 3\n"


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


def test_lazard_trace_of_one_letter_takes_one_step(capsys):
    # the one working set, {0}, is charged one word at any length
    code, out, err = run(
        capsys, "lazard", "--side", "left", "--select", "min", "-k", "1",
        "-n", "1000000", "--trace",
    )
    assert (code, out, err) == (0, "1 | 0 | 0\n", "")


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


def lazard_lines(side, select, k, n, perm, trace):
    """What `lazard` prints, built from lazard_run's own run."""
    reverse = reverse_permutation(k)

    def fmt(v):
        return "".join(map(str, apply_permutation(reverse, v) if perm else v))

    steps = lazard_run(side, select, Alphabet(k), n).steps
    if not trace:
        return " ".join(fmt(step.chosen) for step in steps) + "\n"
    return "".join(f"{i} | {' '.join(sorted(map(fmt, step.snapshot)))} | {fmt(step.chosen)}\n"
                   for i, step in enumerate(steps, 1))


def test_lazard_summary_lines_make_no_eager_run(capsys, monkeypatch):
    # summary lines come from lazard_eliminated; only --trace needs lazard_run
    selectors = [(side, select) for side in ("left", "right") for select in ("min", "max")]
    perms = ((), ("--perm", "reverse"))
    # over one letter every run eliminates 0 alone, past any enumeration budget
    sizes = [(k, n) for k, top in ((2, 8), (3, 5)) for n in range(1, top + 1)] + [(1, 10 ** 6)]
    summaries = {(side, select, k, n, perm): lazard_lines(side, select, k, n, perm, False)
                 for side, select in selectors for k, n in sizes for perm in perms}
    left_max_traces = {(k, n, perm): lazard_lines("left", "max", k, n, perm, True)
                       for k, n in sizes for perm in perms}

    def refuse(*args):
        raise AssertionError("lazard_run called for a summary line")

    monkeypatch.setattr("nyldon.cli.lazard_run", refuse)
    for (side, select, k, n, perm), out in summaries.items():
        argv = ("lazard", "--side", side, "--select", select, "-k", str(k), "-n", str(n), *perm)
        assert run(capsys, *argv) == (0, out, ""), argv
    for side, select in selectors:
        family = "Nyldon" if (side, select) == ("right", "min") else "Lyndon"
        for k in ("1", "2"):
            for n in ("0", "-1"):
                for perm in perms:
                    argv = ("lazard", "--side", side, "--select", select, "-k", k, "-n", n, *perm)
                    assert run(capsys, *argv) == (
                        1, "", f"error: enumerating {family} words with k={k} letters"
                               f" up to length n={n} needs n >= 1\n"), argv

    calls = []

    def spy(*args):
        calls.append(args)
        return lazard_run(*args)

    monkeypatch.setattr("nyldon.cli.lazard_run", spy)
    right_min = ["lazard", "--side", "right", "--select", "min", "-k"]
    code, out, err = run(capsys, *right_min, "2", "-n", "2", "--trace")
    assert (code, out) == (0, "1 | 0 1 | 0\n2 | 1 10 | 1\n3 | 10 | 10\n")
    assert run(capsys, *right_min, "2", "-n", "3") == (0, "0 1 10 100 101\n", "")
    assert calls == [("right", "min", Alphabet(2), 2)]
    # the left/max trace is printed from lazard_run's own left/max run
    calls.clear()
    for (k, n, perm), out in left_max_traces.items():
        argv = ("lazard", "--side", "left", "--select", "max", "-k", str(k), "-n", str(n),
                *perm, "--trace")
        assert run(capsys, *argv) == (0, out, ""), argv
    assert {args[:2] for args in calls} == {("left", "max")}

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
    # 18 and 56 codewords: the unpruned search would try 111,150 and about
    # 8 * 10^97 messages, the pruned one 936 and 41,160
    for argv, bound in ((["-n", "7"], 28), (["-n", "9", "--bound", "504"], 504)):
        assert run(capsys, "codes", "circular", "-k", "2", *argv) == (
            0, f"circular (bounded search, messages up to {bound} letters): yes\n", "",
        )
    # the binary code of length 2 is {01}, so n*|C| = 2 letters is exact
    code, out, err = run(
        capsys, "codes", "circular", "-k", "2", "-n", "2", "--bound", "2"
    )
    assert (code, out) == (
        0, "circular (bounded search, messages up to 2 letters): yes\n",
    )


def test_codes_circular_prints_a_witness_for_a_code_that_is_not_circular(capsys, monkeypatch):
    # every Nyldon code tried is circular, so a stand-in code {01, 10}
    # shows the witness lines: the codeword 01 cut as u=0, v=1 gives vu=10
    monkeypatch.setattr("nyldon.cli.nyldon_code", lambda alphabet, n: frozenset({(0, 1), (1, 0)}))
    assert run(capsys, "codes", "circular", "-k", "2", "-n", "2") == (
        0, "circular (bounded search, messages up to 8 letters): no\nwitness: u=0 v=1\n", "",
    )


def test_codes_circular_bound_below_one_codeword_names_the_bound(capsys):
    assert run(capsys, "codes", "circular", "-k", "2", "-n", "3", "--bound", "2") == (
        1, "", "error: a bound of 2 letters is below one codeword of length 3\n",
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
    # a length bound below 1 is refused by the generator or run it reaches,
    # in the words of that generator's or run's budget error
    below = "with k=2 letters up to length n={} needs n >= 1"
    for argv, what in (
        (["enumerate", "-k", "2", "--max-len", "0"], "enumerating Nyldon words " + below.format(0)),
        (["enumerate", "-k", "2", "--max-len", "-1", "--family", "lyndon"],
         "enumerating Lyndon words " + below.format(-1)),
        (["count", "-k", "2", "-n", "0"], "enumerating Nyldon words " + below.format(0)),
        (["count", "-k", "2", "-n", "-1", "--family", "lyndon"],
         "enumerating Lyndon words " + below.format(-1)),
        (["lazard", "--side", "left", "--select", "min", "-k", "2", "-n", "0"],
         "enumerating Lyndon words " + below.format(0)),
        (["lazard", "--side", "left", "--select", "min", "-k", "2", "-n", "0", "--trace"],
         "an elimination " + below.format(0)),
        (["codes", "comma-free", "-k", "2", "-n", "0"],
         "enumerating Nyldon words " + below.format(0)),
        (["powers", "10", "--max-exp", "0"],
         "factorizing w^1..w^0 with |w|=2 needs --max-exp >= 1"),
        (["powers", "10", "--max-exp", "-1"],
         "factorizing w^1..w^-1 with |w|=2 needs --max-exp >= 1"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {what}\n"), argv
    # an alphabet size below 1 is refused before any length bound is read
    for k in ("0", "-1"):
        for argv in (
            ["enumerate", "-k", k, "--max-len", "3"],
            ["count", "-k", k, "-n", "3"],
            ["lazard", "--side", "right", "--select", "min", "-k", k, "-n", "3"],
            ["codes", "circular", "-k", k, "-n", "3"],
            ["bijection", "-k", k, "-n", "3"],
        ):
            assert run(capsys, *argv) == (
                1, "", f"error: an alphabet with k={k} letters needs k >= 1\n",
            ), argv


def test_bijection_below_length_two_names_n(capsys):
    assert run(capsys, "bijection", "-k", "2", "-n", "1") == (
        1, "", "error: a bijection with k=2 letters at length n=1 needs n >= 2\n",
    )


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


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


def test_importing_the_cli_leaves_json_unloaded(tmp_path, checkout_env):
    # only `factorize --json` needs json; a one-word query should not
    # pay for importing it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nyldon.cli; print('json' in sys.modules)"],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path, timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_codes_circular_refuses_work_past_its_budget(tmp_path, checkout_env):
    # 99 codewords: the 1,776 two-block survivors would take the three-block
    # messages past the budget; the search must refuse them, not run on
    proc = subprocess.run(
        [sys.executable, "-m", "nyldon.cli", "codes", "circular", "-k", "2", "-n", "10"],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:")
    assert "99 codewords" in proc.stderr and "100000" in proc.stderr


@pytest.mark.parametrize("argv, names", [
    (["enumerate", "-k", "2", "--max-len", "40"], ("k=2", "n=40", "300000 words")),
    (["enumerate", "-k", "3", "--max-len", "30", "--family", "lyndon"],
     ("k=3", "n=30", "300000 words")),
    (["count", "-k", "1", "-n", "1000000000"], ("k=1", "n=1000000000", "300000 words")),
    (["bijection", "-k", "2", "-n", "40"], ("k=2", "n=40", "131072 words")),
    (["lazard", "--side", "right", "--select", "min", "-k", "2", "-n", "30"],
     ("k=2", "n=30", "300000 words")),
    (["lazard", "--side", "right", "--select", "max", "-k", "2", "-n", "30"],
     ("k=2", "n=30", "300000 words")),
    # a trace enumerates its family before it charges the working sets
    (["lazard", "--side", "right", "--select", "max", "-k", "2", "-n", "30", "--trace"],
     ("k=2", "n=30", "300000 words")),
    (["powers", "10", "--max-exp", "1000000000"], ("|w|=2", "w^1000000000", "1500000 letters")),
    # --perm reverse relabels each letter by arithmetic, so nothing of size k is built
    (["lazard", "--side", "right", "--select", "min", "-k", "1000000000", "-n", "2", "--perm",
      "reverse"], ("k=1000000000", "n=2", "300000 words")),
    (["lazard", "--side", "left", "--select", "max", "-k", "1000000000", "-n", "2", "--perm",
      "reverse"], ("k=1000000000", "n=2", "300000 words")),
])
def test_size_commands_refuse_work_past_their_budgets(tmp_path, checkout_env, argv, names):
    # each of these would run for hours or exhaust memory; the command
    # must refuse before it starts
    proc = subprocess.run(
        [sys.executable, "-m", "nyldon.cli", *argv],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:")
    assert all(name in proc.stderr for name in names), proc.stderr


@pytest.mark.parametrize("side, select, family", [
    ("right", "min", "nyldon"),
    ("left", "max", "lyndon"),
])
def test_lazard_summary_lines_run_past_the_snapshot_budget(tmp_path, checkout_env, side, select, family):
    # binary n=15 is past lazard_run's budget for right/min (left/max
    # traces run to n=21), but each summary line only enumerates the
    # 4720 Nyldon or Lyndon words
    proc = subprocess.run(
        [sys.executable, "-m", "nyldon.cli", "lazard", "--side", side, "--select", select,
         "-k", "2", "-n", "15"],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path, timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.split()) == sum(count_by_length(family, Alphabet(2), 15))


def test_a_stdout_closed_early_ends_the_cli_quietly(tmp_path, checkout_env):
    # about 1 MB of rows, far past a pipe buffer: the reader takes one
    # line and closes the pipe while the command is still writing
    with subprocess.Popen(
        [sys.executable, "-m", "nyldon.cli", "bijection", "-k", "2", "-n", "15"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env(), cwd=tmp_path,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, first, err) == (1, b"000000000000000 111111111111111\n", b"")


def test_a_stdout_closed_before_the_final_flush_ends_the_cli_quietly(tmp_path, checkout_env):
    # with buffered stdout, one short line is written only when it is
    # flushed, and the reader is gone by then
    env = checkout_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
        [sys.executable, "-m", "nyldon.cli", "test", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")


def test_console_script_is_installed(tmp_path, checkout_env):
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


def test_readme_examples_print_what_the_readme_shows(capsys):
    # every `$ nyldon ...` line in README's sh blocks, and the lines under it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = [
        chunk.partition("\n")[::2]
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]
    ]
    assert len(examples) == 12
    for command, expected in examples:
        program, *argv = shlex.split(command)
        assert program == "nyldon", command
        assert run(capsys, *argv) == (0, expected, ""), command


def test_readme_budget_list_names_every_budget():
    # the bullet list under README's CLI section states each budget, comma-grouped
    from nyldon.cli import POWERS_BUDGET
    from nyldon.codes import CIRCULAR_MESSAGE_BUDGET
    from nyldon.lazard import LAZARD_BUDGET
    from nyldon.oracle import BIJECTION_BUDGET
    from nyldon.words import ENUMERATION_BUDGET

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    bullets = "".join(re.findall(r"^(?:- |  ).*\n", cli_section, re.M))
    for budget in (ENUMERATION_BUDGET, BIJECTION_BUDGET, LAZARD_BUDGET,
                   CIRCULAR_MESSAGE_BUDGET, POWERS_BUDGET):
        assert f"{budget:,}" in bullets, budget
