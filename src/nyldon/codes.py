"""Comma-free and circular-code verdicts for uniform-length codes.

A set C of words, all of length n, is comma-free when no codeword
straddles a boundary inside a message: uxv in C* with x in C+ forces
u, v in C*.  It is circular when uv, vu in C* forces u, v in C*.
Comma-freeness of a uniform code reduces to a two-codeword window and
is decided exactly; circularity is searched up to a total message
length, which decides it exactly once that length reaches n|C| and
otherwise rules out short counterexamples only.  The search drops each
message prefix that no cut survives, and its budget counts the messages
it tries.  For the Nyldon codes themselves, comma-freeness has a closed
form, witness included, so nyldon_comma_free_verdict enumerates and
searches nothing.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .factorization import _nyldon_by_length, is_nyldon
from .words import Alphabet, Word, _refuse_past

# the most messages is_circular_bounded will try; past it a search takes seconds to hours
CIRCULAR_MESSAGE_BUDGET = 10 ** 5

# the most letters a comma-free witness u, x, v may hold, 2n at codeword length n;
# certifying it is quadratic in n, and the largest accepted call takes 2.1 s end to end
COMMA_FREE_WITNESS_BUDGET = 4 * 10 ** 4


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
    if n < 1:
        raise ValueError("codeword length must be at least 1")
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
    x_i[r:] x_{i+1}[:r], the same for every j, so only the straddles of
    cuts 0 < r < n are tested.  They form a closed walk in the graph
    with an edge y -> z whenever y[r:] z[:r] is a codeword; the shortest
    closed walk is a cycle, so no message of more than |C| blocks is
    tried.  Messages grow one codeword at a time, and a prefix is
    dropped once every cut has an internal straddle that is not a
    codeword, since no extension of it can close.  The survivors are
    visited in the order of the unpruned search (block count, then
    lexicographic), so the witness is the first hit of that search.  A
    negative verdict is definitive, and so is a positive one once
    max_total >= n*|C|; below that it is bounded evidence only.  A block
    count whose messages, |C| per survivor of the last, would take the
    total tried past CIRCULAR_MESSAGE_BUDGET raises ValueError instead.
    """
    words = _uniform(code, n)
    if max_total is None:
        max_total = 4 * n
    if max_total < n:
        raise ValueError(f"a bound of {max_total} letters is below one codeword of length {n}")
    ordered = sorted(words)
    what = f"circular search over {len(ordered)} codewords of length {n} up to {max_total} letters"
    # each surviving message of the current block count, with the cuts its straddles allow
    messages = [((x,), range(1, n)) for x in ordered]
    tried = len(ordered)
    for blocks in range(1, min(max_total // n, len(ordered)) + 1):
        _refuse_past(CIRCULAR_MESSAGE_BUDGET, [tried], what, "messages")
        if blocks > 1:
            messages = [(msg + (y,), live) for msg, cuts in messages for y in ordered
                        if (live := [r for r in cuts if msg[-1][r:] + y[:r] in words])]
        for msg, cuts in messages:
            for r in cuts:
                if msg[-1][r:] + msg[0][:r] in words:
                    w = sum(msg, ())
                    return CodeVerdict(False, (w[:r], w[r:]))
        tried += len(messages) * len(ordered)
    return CodeVerdict(True)


def nyldon_code(alphabet: Alphabet, n: int) -> frozenset[Word]:
    """The Nyldon words of length exactly n, as a uniform-length code.
    Raises ValueError for n < 1 or past ENUMERATION_BUDGET."""
    return frozenset(_nyldon_by_length(alphabet, n)[n])


def nyldon_comma_free_classification(k: int, n: int) -> bool:
    """Closed form for when the length-n Nyldon words over k letters are
    comma-free: always at length 1, or over one letter (only 0 is Nyldon,
    so longer codes are empty); at length 2 only for two or three letters;
    at lengths 3 through 6 only for two letters; never past length 6."""
    return n == 1 or k == 1 or (n == 2 and k in (2, 3)) or (k == 2 and 3 <= n <= 6)


def nyldon_comma_free_verdict(alphabet: Alphabet, n: int) -> CodeVerdict:
    """is_comma_free_uniform(nyldon_code(alphabet, n), n), read off a
    closed form: nothing is enumerated or searched.

    The verdict is nyldon_comma_free_classification.  A code that is not
    comma-free gets the witness (u, x, v) of one of three families, the
    one the search reports wherever the enumeration budget lets it run:

        k = 2, n >= 7:   101,  1 0^(n-4) 100,  1^(n-3)
        k >= 3, n >= 3:  k-1,  1 0^(n-2) 1,    0 1^(n-2)
        k >= 4, n = 2:   k-1,  21,             0

    x and the two codewords uxv splits into are Nyldon: read right to
    left, each word's runs stack up letter by letter until its first
    letter merges them all into one factor.  Each answer still
    certifies them with one is_nyldon sweep apiece (a word's Nyldon
    factorization is unique, so one factor means a member) and raises
    AssertionError, naming k and n, if one fails.  On these run-heavy
    words a sweep is quadratic in n, from the tuples its merges copy
    (0.55 s at n = 10,000 and 2.1 s at 20,000, in-process); a list head
    in nyldon_factorize would make it linear.  So a witness of more than
    COMMA_FREE_WITNESS_BUDGET letters raises ValueError before a letter
    of it is built, and so does n < 1.
    """
    k = alphabet.size
    what = f"a comma-free check with k={k} letters at length n={n}"
    if n < 1:
        raise ValueError(f"{what} needs n >= 1")
    if nyldon_comma_free_classification(k, n):
        return CodeVerdict(True)
    _refuse_past(COMMA_FREE_WITNESS_BUDGET, [2 * n], what, "letters")
    if k == 2:
        u, x, v = (1, 0, 1), (1,) + (0,) * (n - 4) + (1, 0, 0), (1,) * (n - 3)
    elif n >= 3:
        u, x, v = (k - 1,), (1,) + (0,) * (n - 2) + (1,), (0,) + (1,) * (n - 2)
    else:
        u, x, v = (k - 1,), (2, 1), (0,)
    message = u + x + v
    if not (is_nyldon(x) and is_nyldon(message[:n]) and is_nyldon(message[n:])):
        raise AssertionError(f"the comma-free witness family fails at k={k}, n={n}")
    return CodeVerdict(False, (u, x, v))
