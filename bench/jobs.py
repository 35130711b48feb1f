"""The fixed job lists of the three workloads, made from the seed.

word-ladder
    Library calls on long words along doubling length ladders.  Every
    word in a run is distinct, so a memo cache cannot answer one job
    from another.  Deterministic shapes get a different length per job
    class for that reason.  The membership class also gets a square
    u.u, so that is_primitive has both answers to give.
combinatorics
    A fixed argv list for ``nyldon.cli.main``; the seed only shuffles
    the order.
cli
    Small seeded subprocess queries covering all nine subcommands, with
    a few deliberate errors.  The expected stdout of each one comes from
    library calls made in-process and formatted here.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from nyldon import (Alphabet, count_by_length, counting_bijection, enumerate_lyndon,
                    enumerate_nyldon, is_circular_bounded, is_comma_free_uniform, is_lyndon,
                    is_nyldon, is_primitive, lazard_run, lyndon_factorize,
                    melancon_nyldon_conjugate, necklace_count, nyldon_code,
                    nyldon_factorize)

SHAPES = ("rand2", "rand4", "one_zeros", "zeros_one", "alt", "nyldon_rand")
# u.u for a random binary u of half the length: the one non-primitive shape
SQUARE = "square"

# class -> (functions, shapes, smallest length, largest length)
LADDER = {
    "factorize": (("factorization.nyldon_factorize", "lyndon.lyndon_factorize"),
                  SHAPES, 256, 16384),
    "membership": (("factorization.is_nyldon", "lyndon.is_lyndon", "words.is_primitive"),
                   SHAPES + (SQUARE,), 256, 4096),
    "conjugate": (("conjugacy.melancon_nyldon_conjugate", "lyndon.lyndon_conjugate"),
                  SHAPES, 128, 2048),
    "std_factorization": (("factorization.standard_factorization",),
                          ("nyldon_rand", "one_zeros"), 64, 1024),
}


class LadderJob(NamedTuple):
    job_class: str
    function: str  # "<module>.<function>"
    shape: str
    word: tuple


def _random_primitive(rng: random.Random, k: int, n: int) -> tuple:
    while True:
        w = tuple(rng.randrange(k) for _ in range(n))
        if is_primitive(w):
            return w


def make_word(shape: str, n: int, offset: int, rng: random.Random) -> tuple:
    """A word of the shape with length about n, primitive for every
    shape but the square.

    Deterministic shapes take n + 2 * offset letters so that each job
    class gets its own word; alt = (10)^m 100 always has odd length.
    """
    n += 2 * offset
    if shape == "rand2":
        return _random_primitive(rng, 2, n)
    if shape == "rand4":
        return _random_primitive(rng, 4, n)
    if shape == "one_zeros":
        return (1,) + (0,) * (n - 1)
    if shape == "zeros_one":
        return (0,) * (n - 1) + (1,)
    if shape == "alt":
        return (1, 0) * ((n - 3) // 2) + (1, 0, 0)
    if shape == "nyldon_rand":
        return melancon_nyldon_conjugate(_random_primitive(rng, 2, n))
    if shape == SQUARE:
        u = tuple(rng.randrange(2) for _ in range(n // 2))
        return u + u
    raise ValueError(shape)


def word_ladder(seed: int) -> list[LadderJob]:
    """The word-ladder job list.  Building it calls the library, untraced
    and untimed: is_primitive screens the random words and Melancon's
    procedure rotates nyldon_rand into place."""
    rng = random.Random(seed)
    jobs, seen = [], set()
    for offset, (job_class, (functions, shapes, low, high)) in enumerate(LADDER.items()):
        n = low
        while n <= high:
            for shape in shapes:
                word = make_word(shape, n, offset, rng)
                while word in seen:  # a repeated random word; redraw
                    word = make_word(shape, n, offset, rng)
                seen.add(word)
                jobs.extend(LadderJob(job_class, f, shape, word) for f in functions)
            n *= 2
    return jobs


# ---- combinatorics ---------------------------------------------------------

def _combinatorics_argvs() -> list[list[str]]:
    argvs = []
    for family in ("nyldon", "lyndon"):
        argvs.append(["enumerate", "-k", "2", "--max-len", "15", "--family", family])
        argvs.append(["enumerate", "-k", "3", "--max-len", "9", "--family", family])
        argvs.append(["count", "-k", "2", "-n", "14", "--family", family, "--check-formula"])
        argvs.append(["count", "-k", "3", "-n", "8", "--family", family, "--check-formula"])
    argvs.append(["bijection", "-k", "2", "-n", "12"])
    argvs.append(["bijection", "-k", "3", "-n", "7"])
    for side in ("left", "right"):
        for select in ("min", "max"):
            argvs.append(["lazard", "--side", side, "--select", select, "-k", "2", "-n", "12"])
    argvs.append(["lazard", "--side", "right", "--select", "min", "-k", "2", "-n", "12",
                  "--perm", "reverse"])
    for k in (2, 3, 4, 5):
        for n in range(1, 7):
            argvs.append(["codes", "comma-free", "-k", str(k), "-n", str(n)])
    argvs.append(["codes", "circular", "-k", "2", "-n", "6"])
    argvs.append(["codes", "circular", "-k", "3", "-n", "3"])
    return argvs


COMBINATORICS = _combinatorics_argvs()
GROUPS = {"enumerate": "enumerate", "count": "counting", "bijection": "counting",
          "lazard": "lazard", "codes": "codes"}


def combinatorics(seed: int) -> list[list[str]]:
    order = list(COMBINATORICS)
    random.Random(seed).shuffle(order)
    return order


# ---- cli -------------------------------------------------------------------

class Invocation(NamedTuple):
    argv: list
    code: int
    stdout: str


def _fmt(w) -> str:
    return "".join(str(a) for a in w)


def _expected(argv: list[str]) -> str:
    """What the CLI should print for argv, from library calls."""
    command, rest = argv[0], argv[1:]
    opts = dict(zip(rest, rest[1:]))
    family = opts.get("--family", "nyldon")
    k = int(opts["-k"]) if "-k" in opts else None
    word = tuple(int(c) for c in rest[0]) if command in ("factorize", "test", "conjugate", "powers") else None
    factorize = nyldon_factorize if family == "nyldon" else lyndon_factorize
    if command == "factorize":
        factors = [_fmt(f) for f in factorize(word)]
        if "--json" in rest:
            return json.dumps({"word": rest[0], "factors": factors, "family": family}) + "\n"
        return "|".join(factors) + "\n"
    if command == "test":
        member = is_nyldon(word) if family == "nyldon" else is_lyndon(word)
        return ("true" if member else "false") + "\n"
    if command == "enumerate":
        enum = enumerate_nyldon if family == "nyldon" else enumerate_lyndon
        return " ".join(_fmt(w) for w in enum(Alphabet(k), int(opts["--max-len"]))) + "\n"
    if command == "conjugate":
        # with --verify the CLI must also agree with its brute force, or exit 1
        return _fmt(melancon_nyldon_conjugate(word)) + "\n"
    if command == "count":
        counts = count_by_length(family, Alphabet(k), int(opts["-n"]))
        return "".join(f"{n} {c} {necklace_count(k, n)}\n" for n, c in enumerate(counts, 1))
    if command == "lazard":
        trace = lazard_run(opts["--side"], opts["--select"], Alphabet(k), int(opts["-n"]))
        return " ".join(_fmt(w) for w in trace.eliminated) + "\n"
    if command == "codes":
        n = int(opts["-n"])
        code = nyldon_code(Alphabet(k), n)
        if rest[0] == "comma-free":
            verdict = is_comma_free_uniform(code, n)
            out = f"comma-free: {'yes' if verdict.holds else 'no'}\n"
            if not verdict.holds:
                u, x, v = verdict.witness
                blocks = u + x + v
                message = "".join(f"({_fmt(blocks[i:i + n])})" for i in range(0, len(blocks), n))
                out += f"witness: {_fmt(u)}({_fmt(x)}){_fmt(v)} = {message}\n"
            return out
        verdict = is_circular_bounded(code, n, 4 * n)
        out = f"circular (bounded search, messages up to {4 * n} letters): "
        out += ("yes" if verdict.holds else "no") + "\n"
        if not verdict.holds:
            u, v = verdict.witness
            out += f"witness: u={_fmt(u)} v={_fmt(v)}\n"
        return out
    if command == "bijection":
        mapping = counting_bijection(Alphabet(k), int(opts["-n"]))
        return "".join(f"{_fmt(w)} {_fmt(mapping[w])}\n" for w in sorted(mapping))
    if command == "powers":
        return "".join(f"{e} {'|'.join(_fmt(f) for f in factorize(word * e))}\n"
                       for e in range(1, int(opts["--max-exp"]) + 1))
    raise ValueError(command)


# deliberate errors, with the exit code the CLI must give
CLI_ERRORS = (
    (["factorize", "01a1"], 1),
    (["conjugate", "010101"], 1),
    (["powers", "10", "--max-exp", "0"], 1),
    (["enumerate", "-k", "2"], 2),
    (["lazard", "--side", "up", "--select", "min", "-k", "2", "-n", "3"], 2),
)


def cli(seed: int) -> list[Invocation]:
    """100 seeded queries and 5 deliberate errors, in seeded order."""
    rng = random.Random(seed)

    def word(low=8, high=64):
        k = rng.choice((2, 3, 4))
        return "".join(str(rng.randrange(k)) for _ in range(rng.randint(low, high)))

    def primitive(low=8, high=64):
        while True:
            w = word(low, high)
            if is_primitive(tuple(int(c) for c in w)):
                return w

    argvs = []
    for _ in range(2):
        for family in ("nyldon", "lyndon"):
            for _ in range(4):
                argvs.append(["factorize", word(), "--family", family])
                argvs.append(["test", word(), "--family", family])
            argvs.append(["enumerate", "-k", "2", "--max-len", str(rng.randint(5, 8)),
                          "--family", family])
            argvs.append(["enumerate", "-k", "3", "--max-len", str(rng.randint(3, 5)),
                          "--family", family])
            argvs.append(["count", "-k", str(rng.choice((2, 3))), "-n", str(rng.randint(4, 7)),
                          "--family", family, "--check-formula"])
            argvs.append(["powers", word(4, 12), "--max-exp", str(rng.randint(2, 5)),
                          "--family", family])
        argvs += [["factorize", word(), "--json"] for _ in range(3)]
        argvs += [["conjugate", primitive()] for _ in range(5)]
        argvs += [["conjugate", primitive(8, 24), "--verify"] for _ in range(3)]
        argvs += [["lazard", "--side", side, "--select", select, "-k", "2",
                   "-n", str(rng.randint(4, 7))] for side in ("left", "right")
                  for select in ("min", "max")]
        argvs += [["codes", "comma-free", "-k", str(rng.randint(2, 4)), "-n",
                   str(rng.randint(1, 4))] for _ in range(6)]
        argvs += [["codes", "circular", "-k", "2", "-n", str(rng.randint(2, 4))]
                  for _ in range(2)]
        argvs += [["bijection", "-k", str(rng.choice((2, 3))), "-n", str(rng.randint(2, 5))]
                  for _ in range(3)]
    jobs = [Invocation(argv, 0, _expected(argv)) for argv in argvs]
    jobs += [Invocation(list(argv), code, "") for argv, code in CLI_ERRORS]
    rng.shuffle(jobs)
    return jobs
