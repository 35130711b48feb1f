"""Command-line interface.

Every subcommand prints deterministic text, one record per line, so
outputs can be captured as golden files.  `main` alone sets the exit
status: 0 on success, 1 on domain errors (empty or malformed words,
out-of-range parameters, verification mismatches), 2 on usage errors
(argparse's convention).  Handlers return nothing and report a domain
error or a failed verification by raising ValueError; `main` prints it
as one `error:` line.  A stdout closed early also exits 1, quietly.
"""

from __future__ import annotations

import argparse
import os
import sys

from .codes import is_circular_bounded, nyldon_code, nyldon_comma_free_verdict
from .conjugacy import melancon_nyldon_conjugate, nyldon_conjugate_bruteforce
from .factorization import enumerate_nyldon, is_nyldon, nyldon_factorize
from .lazard import lazard_eliminated, lazard_run
from .lyndon import enumerate_lyndon, is_lyndon, lyndon_factorize
from .oracle import count_by_length, counting_bijection, necklace_count
from .words import Alphabet, Word, _read_letters, _refuse_past, format_factorization

# the most letters `powers` factorizes, the sum of e*|w| over e <= --max-exp;
# `powers 10 --max-exp 1224` takes about 0.6 s, but it bounds letters, not time:
# factorizing is quadratic on run-heavy words, so w = 1 0^32767 at --max-exp 2
# (98,304 letters) takes 5.8 s
POWERS_BUDGET = 15 * 10 ** 5


def _parse_word(text: str) -> tuple[Word, Alphabet]:
    """Word from CLI text, with the alphabet its letters imply: a comma
    list if the text has a comma, else one digit per letter."""
    if text == "":
        raise ValueError("empty word")
    w = _read_letters(text.split(",") if "," in text else list(text), text)
    return w, Alphabet(max(2, max(w) + 1))


def _cmd_factorize(args: argparse.Namespace) -> None:
    w, alphabet = _parse_word(args.word)
    factorize = nyldon_factorize if args.family == "nyldon" else lyndon_factorize
    factors = factorize(w)
    if args.json:
        import json  # only --json needs it; one-word queries skip the import
        print(json.dumps({
            "word": alphabet.format(w),
            "factors": [alphabet.format(f) for f in factors],
            "family": args.family,
        }))
    else:
        print(format_factorization(alphabet, factors))


def _cmd_test(args: argparse.Namespace) -> None:
    w, _ = _parse_word(args.word)
    member = is_nyldon(w) if args.family == "nyldon" else is_lyndon(w)
    print("true" if member else "false")


def _cmd_enumerate(args: argparse.Namespace) -> None:
    alphabet = Alphabet(args.k)
    enum = enumerate_nyldon if args.family == "nyldon" else enumerate_lyndon
    words = enum(alphabet, args.max_len)
    print(" ".join(alphabet.format(w) for w in words))


def _cmd_conjugate(args: argparse.Namespace) -> None:
    w, alphabet = _parse_word(args.word)
    try:
        result = melancon_nyldon_conjugate(w)
    except ValueError as exc:  # only a power: _parse_word has refused the empty word
        raise ValueError(f"{args.word} is not primitive: {exc}") from None
    if args.verify:
        reference = nyldon_conjugate_bruteforce(w)
        if reference != result:
            raise ValueError(f"methods disagree on {args.word}: melancon {alphabet.format(result)},"
                             f" brute force {alphabet.format(reference)}")
    print(alphabet.format(result))


def _cmd_count(args: argparse.Namespace) -> None:
    alphabet = Alphabet(args.k)
    counts = count_by_length(args.family, alphabet, args.n)
    for n, c in enumerate(counts, 1):
        if args.check_formula:
            expected = necklace_count(args.k, n)
            print(n, c, expected)
            if c != expected:
                raise ValueError(f"count {c} differs from formula value {expected} at length {n}")
        else:
            print(n, c)


def _cmd_lazard(args: argparse.Namespace) -> None:
    alphabet = Alphabet(args.k)
    # the reversed-order run is the plain run with each letter a read as k-1-a
    relabel = (lambda w: tuple(map((args.k - 1).__sub__, w))) if args.perm == "reverse" else (lambda w: w)
    if args.trace:
        for i, step in enumerate(lazard_run(args.side, args.select, alphabet, args.n).steps, 1):
            snapshot = " ".join(alphabet.format(w) for w in sorted(map(relabel, step.snapshot)))
            print(f"{i} | {snapshot} | {alphabet.format(relabel(step.chosen))}")
    else:
        eliminated = lazard_eliminated(args.side, args.select, alphabet, args.n)
        print(" ".join(alphabet.format(relabel(w)) for w in eliminated))


def _cmd_comma_free(args: argparse.Namespace) -> None:
    alphabet = Alphabet(args.k)
    verdict = nyldon_comma_free_verdict(alphabet, args.n)
    print(f"comma-free: {'yes' if verdict.holds else 'no'}")
    if not verdict.holds:
        u, x, v = verdict.witness  # uxv is two codewords, x astride them
        message = u + x + v
        print(f"witness: {alphabet.format(u)}({alphabet.format(x)}){alphabet.format(v)}"
              f" = ({alphabet.format(message[:args.n])})({alphabet.format(message[args.n:])})")


def _cmd_circular(args: argparse.Namespace) -> None:
    alphabet = Alphabet(args.k)
    code = nyldon_code(alphabet, args.n)
    bound = args.bound if args.bound is not None else 4 * args.n
    verdict = is_circular_bounded(code, args.n, bound)
    print(f"circular (bounded search, messages up to {bound} letters):"
          f" {'yes' if verdict.holds else 'no'}")
    if not verdict.holds:
        u, v = verdict.witness
        print(f"witness: u={alphabet.format(u)} v={alphabet.format(v)}")


def _cmd_bijection(args: argparse.Namespace) -> None:
    alphabet = Alphabet(args.k)
    mapping = counting_bijection(alphabet, args.n)
    fmt = alphabet.format
    # one write; the mapping is never empty, as a^n (n >= 2) is never Lyndon
    print("\n".join(f"{fmt(w)} {fmt(image)}" for w, image in mapping.items()))


def _cmd_powers(args: argparse.Namespace) -> None:
    w, alphabet = _parse_word(args.word)
    what = f"factorizing w^1..w^{args.max_exp} with |w|={len(w)}"
    if args.max_exp < 1:
        raise ValueError(f"{what} needs --max-exp >= 1")
    _refuse_past(POWERS_BUDGET, [len(w) * args.max_exp * (args.max_exp + 1) // 2], what, "letters")
    factorize = nyldon_factorize if args.family == "nyldon" else lyndon_factorize
    for e in range(1, args.max_exp + 1):
        print(e, format_factorization(alphabet, factorize(w * e)))


def _add_family(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=["lyndon", "nyldon"], default="nyldon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nyldon",
        description="Factorizations, enumeration, conjugacy, Lazard eliminations, "
                    "and code checks for Lyndon and Nyldon words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factor a word into its family factorization")
    p.add_argument("word")
    _add_family(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("test", help="membership test")
    p.add_argument("word")
    _add_family(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("enumerate", help="list all family words up to a length")
    p.add_argument("-k", type=int, required=True, help="alphabet size")
    p.add_argument("--max-len", type=int, required=True)
    _add_family(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("conjugate", help="the Nyldon rotation of a primitive word")
    p.add_argument("word")
    p.add_argument("--verify", action="store_true",
                   help="also test every rotation and fail on disagreement")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("count", help="family words per length")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True, help="largest length")
    _add_family(p)
    p.add_argument("--check-formula", action="store_true",
                   help="append the necklace-formula value and fail on mismatch")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("lazard", help="run one bounded elimination")
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--select", choices=["min", "max"], required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True, help="length bound")
    p.add_argument("--perm", choices=["reverse"],
                   help="select under the letter-reversed order")
    p.add_argument("--trace", action="store_true",
                   help="print every step as: i | working set | eliminated word")
    p.set_defaults(func=_cmd_lazard)

    p = sub.add_parser("codes", help="code checks on the length-n Nyldon words")
    check = p.add_subparsers(dest="check", required=True)
    for name, func in (("comma-free", _cmd_comma_free), ("circular", _cmd_circular)):
        q = check.add_parser(name)
        q.add_argument("-k", type=int, required=True)
        q.add_argument("-n", type=int, required=True, help="codeword length")
        q.set_defaults(func=func)
    check.choices["circular"].add_argument("--bound", type=int, default=None,
                                           help="largest total message length searched (default 4n)")

    p = sub.add_parser("bijection",
                       help="length-preserving map from non-Lyndon onto non-Nyldon words")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True, help="word length")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("powers", help="family factorizations of w^1..w^e")
    p.add_argument("word")
    p.add_argument("--max-exp", type=int, default=5)
    _add_family(p)
    p.set_defaults(func=_cmd_powers)

    return parser


# one parser per process, built at import, so that the first main call costs what every later one does
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # so a reader gone before the flush at exit meets the handler below
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # point stdout at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
