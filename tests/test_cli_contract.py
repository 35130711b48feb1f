"""The CLI's exit-code contract over argv drawn from a small grammar,
and over a fixed seeded argv set.

Every subcommand gets valid small inputs, malformed words, sizes 0 and
-1 and unknown options.  Whatever the argv, no exception but argparse's
SystemExit(2) escapes `main`; exit 0 prints nothing on stderr; exit 1
prints nothing on stdout and one `error: ...` line on stderr; and the
one-word commands print the library's answer.  In the grammar, words
stay at most 24 letters and sizes at most 5; the seeded set also takes
sizes 40 and 10**9.
"""

import contextlib
import io
import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    Alphabet,
    format_factorization,
    is_lyndon,
    is_nyldon,
    is_primitive,
    lyndon_factorize,
    melancon_nyldon_conjugate,
    nyldon_factorize,
)
from nyldon.cli import main

MALFORMED = ("", "10a0", "1_0, 2,+3", "\u0661\u0660,2", " 1,0", "1,,0", "2,")

# (text, word), word None when the text is malformed; a comma list has
# at least two letters, since "12" alone reads as two digits
digit_words = st.integers(2, 4).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=24)
).map(lambda w: ("".join(map(str, w)), tuple(w)))
comma_words = st.lists(st.integers(0, 12), min_size=2, max_size=24).map(
    lambda w: (",".join(map(str, w)), tuple(w))
)
words = st.one_of(digit_words, comma_words, st.sampled_from(MALFORMED).map(lambda t: (t, None)))

families = st.sampled_from([[], ["--family", "lyndon"], ["--family", "nyldon"]])
sizes = st.integers(-1, 5)
unknown = st.sampled_from([[], [], [], ["--bogus"], ["-z", "1"]])


def flag(name):
    return st.sampled_from([[], [name]])


def opt(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def seq(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def word_command(name, *options):
    return st.tuples(st.just(name), words, seq(*options))


word_commands = st.one_of(
    word_command("factorize", families, flag("--json")),
    word_command("test", families),
    word_command("conjugate", flag("--verify")),
    word_command("powers", families, opt("--max-exp", sizes)),
)

size_commands = st.one_of(
    seq(st.just(["enumerate", "-k"]), sizes.map(lambda k: [str(k), "--max-len"]),
        sizes.map(lambda n: [str(n)]), families),
    seq(st.just(["count", "-k"]), sizes.map(lambda k: [str(k), "-n"]),
        sizes.map(lambda n: [str(n)]), families, flag("--check-formula")),
    seq(st.just(["lazard", "--side"]), st.sampled_from([["left"], ["right"]]),
        st.just(["--select"]), st.sampled_from([["min"], ["max"]]),
        st.just(["-k"]), sizes.map(lambda k: [str(k), "-n"]), sizes.map(lambda n: [str(n)]),
        flag("--trace"), st.sampled_from([[], ["--perm", "reverse"]])),
    seq(st.just(["codes", "comma-free", "-k"]), sizes.map(lambda k: [str(k), "-n"]),
        sizes.map(lambda n: [str(n)])),
    seq(st.just(["codes", "circular", "-k"]), sizes.map(lambda k: [str(k), "-n"]),
        sizes.map(lambda n: [str(n)]), opt("--bound", st.integers(-1, 12))),
    seq(st.just(["bijection", "-k"]), sizes.map(lambda k: [str(k), "-n"]),
        sizes.map(lambda n: [str(n)])),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, code, out, err):
    """0 with nothing on stderr, 1 with nothing on stdout and one
    `error: ` line on stderr, or argparse's 2."""
    if code == 0:
        assert err == "", argv
    elif code == 1:
        assert out == "", argv
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, argv
    else:
        assert code == 2, argv


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def check_stdout(argv, w, out):
    """The one-word command's output is the library's answer."""
    alphabet = Alphabet(max(2, max(w) + 1))
    family = option(argv, "--family", "nyldon")
    factorize = nyldon_factorize if family == "nyldon" else lyndon_factorize
    command = argv[0]
    if command == "factorize" and "--json" in argv:
        assert json.loads(out) == {
            "word": alphabet.format(w),
            "factors": [alphabet.format(f) for f in factorize(w)],
            "family": family,
        }
        return
    if command == "factorize":
        expected = format_factorization(alphabet, factorize(w)) + "\n"
    elif command == "test":
        member = is_nyldon(w) if family == "nyldon" else is_lyndon(w)
        expected = "true\n" if member else "false\n"
    elif command == "conjugate":
        expected = alphabet.format(melancon_nyldon_conjugate(w)) + "\n"
    else:
        expected = "".join(f"{e} {format_factorization(alphabet, factorize(w * e))}\n"
                           for e in range(1, int(option(argv, "--max-exp", 5)) + 1))
    assert out == expected, argv


@settings(max_examples=150, deadline=None)
@given(word_commands, unknown)
def test_word_commands_keep_the_contract(command, extra):
    name, (text, w), options = command
    argv = [name, text, *options, *extra]
    code, out, err = run(argv)
    check_contract(argv, code, out, err)
    if extra:
        assert code == 2, argv
        return
    fails = (w is None or int(option(argv, "--max-exp", 5)) < 1
             or (name == "conjugate" and not is_primitive(w)))
    assert code == (1 if fails else 0), argv
    if code == 0:
        check_stdout(argv, w, out)


@settings(max_examples=100, deadline=None)
@given(size_commands, unknown)
def test_size_commands_keep_the_contract(argv, extra):
    argv = argv + extra
    code, out, err = run(argv)
    check_contract(argv, code, out, err)
    if extra:
        assert code == 2, argv
    elif any(a in ("-k", "-n", "--max-len") and int(argv[i + 1]) < 1
             for i, a in enumerate(argv)):
        assert code == 1, argv


SIZES = ("-1", "0", "1", "2", "3", "40", "1000000000")
SEEDED_WORDS = ("10110", "0", "2,10,0", "0,0", *MALFORMED, "\u0661,2", "1\n0")


def seeded_argvs():
    """Every subcommand with every word above or every pair of sizes,
    each row with options drawn by a seeded generator.  k=40 with n=2
    or 3 is left out: it is accepted, and `bijection` or `lazard
    --trace` then takes about 0.4 s."""
    rng = random.Random(21)

    def pick(*choices):
        return list(rng.choice(choices))

    def family():
        return pick((), ("--family", "lyndon"), ("--family", "nyldon"))

    argvs = []
    for text in SEEDED_WORDS:
        argvs += [["factorize", text, *pick((), ("--json",)), *family()],
                  ["test", text, *family()],
                  ["conjugate", text, *pick((), ("--verify",))]]
        argvs += [["powers", text, "--max-exp", e, *family()] for e in SIZES]
    for k, n in itertools.product(SIZES, SIZES):
        if k == "40" and n in ("2", "3"):
            continue
        argvs += [
            ["enumerate", "-k", k, "--max-len", n, *family()],
            ["count", "-k", k, "-n", n, *family(), *pick((), ("--check-formula",))],
            ["lazard", "--side", *pick(("left",), ("right",)), "--select", *pick(("min",), ("max",)),
             "-k", k, "-n", n, *pick((), ("--trace",)), *pick((), ("--perm", "reverse"))],
            ["codes", "comma-free", "-k", k, "-n", n],
            ["codes", "circular", "-k", k, "-n", n, *pick((), *(("--bound", b) for b in SIZES))],
            ["bijection", "-k", k, "-n", n],
        ]
    unknown = [["bogus"], [], ["-z", "1"], ["factorize"], ["enumerate", "-k", "2"],
               ["count", "-k", "two", "-n", "2"], ["lazard", "--side", "up", "--select", "min",
               "-k", "2", "-n", "2"], ["codes", "triangular", "-k", "2", "-n", "2"],
               ["powers", "10", "--max-exp"], ["conjugate", "10", "--method", "bruteforce"]]
    argvs += unknown + [argv + pick(("--bogus",), ("-z", "1")) for argv in rng.sample(argvs, 40)]
    return argvs


def test_seeded_argvs_keep_the_exit_code_contract():
    for argv in seeded_argvs():
        check_contract(argv, *run(argv))
