"""Comma-free and circular-code verdicts for uniform-length codes.

A set C of words, all of length n, is comma-free when no codeword
straddles a boundary inside a message: uxv in C* with x in C+ forces
u, v in C*.  It is circular when uv, vu in C* forces u, v in C*.
Comma-freeness of a uniform code reduces to a two-codeword window and
is decided exactly; circularity is searched up to a total message
length, which decides it exactly once that length reaches n|C| and
otherwise rules out short counterexamples only.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Iterable, NamedTuple

# is_nyldon is unused here, but bench/selftest.py checks that tracing rebinds it in this module
from .factorization import _nyldon_by_length, is_nyldon  # noqa: F401
from .words import Alphabet, Word, _refuse_past

# the most messages is_circular_bounded will try; past it a search takes seconds to hours
CIRCULAR_MESSAGE_BUDGET = 10 ** 5


class CodeVerdict(NamedTuple):
    """Outcome of a code-property check.

    witness is present exactly when the property fails: (u, x, v) with
    uxv in C*, x in C+, u not in C* for the comma-free checks, and the
    pair (u, v) with uv, vu in C* but u not in C* for the bounded
    circularity check.
    """

    holds: bool
    witness: tuple[Word, ...] | None = None


def _uniform(code: Iterable[Word], n: int) -> frozenset[Word]:
    if n < 1:
        raise ValueError("codeword length must be at least 1")
    words = frozenset(code)
    for w in words:
        if len(w) != n:
            raise ValueError(
                f"code is not uniform: got a word of length {len(w)}, expected {n}"
            )
    return words


def in_code_star(code: frozenset[Word], n: int, w: Word) -> bool:
    """Is w a concatenation of codewords?  The empty word qualifies."""
    if len(w) % n:
        return False
    return all(w[i:i + n] in code for i in range(0, len(w), n))


def is_comma_free_uniform(code: Iterable[Word], n: int) -> CodeVerdict:
    """Decide comma-freeness of a uniform-length code.

    Looks for a codeword x occurring at a strictly internal offset of
    some two-codeword concatenation yz.  Two blocks suffice: in any
    message, a codeword overlapping a block boundary covers at most two
    blocks, so a violation always restricts to one.  The resulting
    counterexample is (y[:i], x, z[i:]); its outer parts have length
    i and n-i, neither a multiple of n, so they cannot parse.

    Offsets are scanned ascending and codewords in increasing
    lexicographic order, keeping the lex-greatest y and z per overlap,
    which makes the reported witness deterministic.
    """
    words = _uniform(code, n)
    ordered = sorted(words)
    for i in range(1, n):
        # x straddles yz at offset i  <=>  y ends with x[:n-i] and z starts with x[n-i:]
        by_tail = {y[i:]: y for y in ordered}
        by_head = {z[:i]: z for z in ordered}
        for x in ordered:
            y = by_tail.get(x[:n - i])
            z = by_head.get(x[n - i:])
            if y is not None and z is not None:
                return CodeVerdict(False, (y[:i], x, z[i:]))
    return CodeVerdict(True)


def is_circular_bounded(code: Iterable[Word], n: int, max_total: int | None = None) -> CodeVerdict:
    """Search for a circularity counterexample among short messages.

    Looks for a message uv in C* of at most max_total letters (default
    4n) with vu in C* while u itself does not parse.  Cut x1...xb at r
    letters into block j: the n-blocks of vu are the cyclic straddles
    x_i[r:] x_{i+1}[:r], the same for every j, so only cuts 0 < r < n
    in the first block are tried.  The straddles form a closed walk in
    the graph with an edge y -> z whenever y[r:] z[:r] is a codeword;
    the shortest closed walk is a cycle, so no message of more than |C|
    blocks is tried.  A negative verdict is definitive, and so is a
    positive one once max_total >= n*|C|; below that it is bounded
    evidence only.  A search that would try more than
    CIRCULAR_MESSAGE_BUDGET messages raises ValueError before it starts.
    """
    words = _uniform(code, n)
    if max_total is None:
        max_total = 4 * n
    if max_total < 2 * n:
        raise ValueError("max_total must allow at least two codewords")
    ordered = sorted(words)
    lengths = range(1, min(max_total // n, len(ordered)) + 1)
    _refuse_past(CIRCULAR_MESSAGE_BUDGET, accumulate(len(ordered) ** b for b in lengths),
                 f"circular search over {len(ordered)} codewords of length {n} up to {max_total}"
                 " letters", "messages")
    for blocks in lengths:
        for msg in product(ordered, repeat=blocks):
            w = sum(msg, ())
            for r in range(1, n):
                u, v = w[:r], w[r:]
                if in_code_star(words, n, v + u):
                    return CodeVerdict(False, (u, v))
    return CodeVerdict(True)


def nyldon_code(alphabet: Alphabet, n: int) -> frozenset[Word]:
    """The Nyldon words of length exactly n, as a uniform-length code.
    Raises ValueError past ENUMERATION_BUDGET."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return frozenset(_nyldon_by_length(alphabet, n)[n])


def nyldon_comma_free_classification(k: int, n: int) -> bool:
    """Closed form for when the length-n Nyldon words over k letters are
    comma-free: always at length 1; at length 2 only for two or three
    letters; at lengths 3 through 6 only for two letters; never past
    length 6."""
    return n == 1 or (n == 2 and k in (2, 3)) or (k == 2 and 3 <= n <= 6)


def nyldon_comma_free_table(k_max: int, n_max: int) -> dict[tuple[int, int], bool]:
    """Computed comma-free verdicts for the codes nyldon_code(k, n),
    2 <= k <= k_max and 1 <= n <= n_max, keyed by (k, n).

    Each verdict is asserted against the closed-form classification, so
    a disagreement fails loudly instead of propagating.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    table: dict[tuple[int, int], bool] = {}
    for k in range(2, k_max + 1):
        alphabet = Alphabet(k)
        for n in range(1, n_max + 1):
            verdict = is_comma_free_uniform(nyldon_code(alphabet, n), n)
            if verdict.holds != nyldon_comma_free_classification(k, n):
                raise AssertionError(
                    f"computed comma-free verdict {verdict.holds} for k={k}, n={n}"
                    " contradicts the classification"
                )
            table[k, n] = verdict.holds
    return table
