"""Output checks that do not trust the code under test.

Every check here recomputes what it needs from first principles:
Duval's algorithm for the Lyndon factorization, an index-stack version
of the right-to-left merge for the Nyldon factorization, byte search
for primitivity and rotations, and the necklace formula for per-length
counts.  Nothing imports ``nyldon``.  A check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

from itertools import chain

Word = tuple


def duval(w: Word) -> list[Word]:
    """The nonincreasing Lyndon factorization (Duval 1983)."""
    out = []
    n, i = len(w), 0
    while i < n:
        k, j = i, i + 1
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        period = j - k
        while i <= k:
            out.append(tuple(w[i:i + period]))
            i += period
    return out


def _greater(w: Word, a: int, b: int, c: int) -> bool:
    """w[a:b] > w[b:c] lexicographically, without copying either."""
    for i in range(min(b - a, c - b)):
        x, y = w[a + i], w[b + i]
        if x != y:
            return x > y
    return b - a > c - b


def nyldon_reference(w: Word) -> list[Word]:
    """The nondecreasing Nyldon factorization by the right-to-left merge.

    starts[-1] is the leftmost factor; each factor ends where the one
    after it (one slot down the list) starts."""
    n = len(w)
    starts = [n - 1]
    for i in range(n - 2, -1, -1):
        starts.append(i)
        while len(starts) >= 2:
            end = starts[-3] if len(starts) >= 3 else n
            if not _greater(w, starts[-1], starts[-2], end):
                break
            del starts[-2]
    bounds = starts[::-1] + [n]
    return [tuple(w[bounds[i]:bounds[i + 1]]) for i in range(len(starts))]


def is_primitive_reference(w: Word) -> bool:
    """A nonempty word is primitive iff it occurs in ww only at 0 and |w|."""
    b = bytes(w)
    return len(b) > 0 and (b + b).find(b, 1) == len(b)


def is_rotation(r: Word, w: Word) -> bool:
    return len(r) == len(w) and bytes(r) in bytes(w) + bytes(w)


def moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def necklaces(k: int, n: int) -> int:
    """Aperiodic necklaces of length n over k letters (Witt's formula)."""
    return sum(moebius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


# ---- word-ladder outputs -------------------------------------------------

def check_factorization(family: str, w: Word, factors) -> str | None:
    factors = [tuple(f) for f in factors]
    if tuple(chain.from_iterable(factors)) != tuple(w):
        return "factors do not concatenate to the input"
    if any(not f for f in factors):
        return "empty factor"
    pairs = list(zip(factors, factors[1:]))
    if family == "nyldon":
        if any(a > b for a, b in pairs):
            return "Nyldon factors not nondecreasing"
        if factors != nyldon_reference(w):
            return "differs from the reference right-to-left merge"
    else:
        if any(a < b for a, b in pairs):
            return "Lyndon factors not nonincreasing"
        if factors != duval(w):
            return "differs from the Duval reference"
    return None


def check_membership(function: str, w: Word, result) -> str | None:
    if function == "is_nyldon":
        expected = len(nyldon_reference(w)) == 1
    elif function == "is_lyndon":
        expected = len(duval(w)) == 1
    else:
        expected = is_primitive_reference(w)
    if result is not expected:
        return f"{function} returned {result!r}, expected {expected}"
    return None


def check_conjugate(family: str, w: Word, result) -> str | None:
    result = tuple(result)
    if not is_rotation(result, w):
        return "result is not a rotation of the input"
    single = nyldon_reference(result) if family == "nyldon" else duval(result)
    if len(single) != 1:
        return f"rotation is not a {family} word"
    return None


def check_standard(w: Word, result) -> str | None:
    left, right = (tuple(part) for part in result)
    if left + right != tuple(w) or not left or not right:
        return "parts do not split the input"
    if len(nyldon_reference(left)) != 1 or len(nyldon_reference(right)) != 1:
        return "a part is not Nyldon"
    if not left > right:
        return "left part not greater than right part"
    # the longest proper Nyldon suffix of w is the last Nyldon factor of w[1:]
    if right != nyldon_reference(w[1:])[-1]:
        return "right part is not the longest proper Nyldon suffix"
    return None


# ---- combinatorics and cli outputs -----------------------------------------

def check_counts(argv: list[str], stdout: str) -> str | None:
    """Per-length counts of `enumerate` and `count` output against the
    necklace formula; other subcommands pass through."""
    command = argv[0]
    k = int(argv[argv.index("-k") + 1])
    if command == "enumerate":
        max_len = int(argv[argv.index("--max-len") + 1])
        counts = [0] * max_len
        for word in stdout.split():
            if len(word) > max_len:
                return f"word {word} longer than --max-len"
            counts[len(word) - 1] += 1
        rows = list(enumerate(counts, 1))
    elif command == "count":
        rows = [tuple(int(x) for x in line.split()[:2]) for line in stdout.splitlines()]
        if [n for n, _ in rows] != list(range(1, int(argv[argv.index("-n") + 1]) + 1)):
            return "count printed the wrong lengths"
    else:
        return None
    for n, c in rows:
        if c != necklaces(k, n):
            return f"length {n}: {c} words, necklace formula gives {necklaces(k, n)}"
    return None


def check_exit(expected_code: int, expected_stdout: str, code: int, stdout: str) -> str | None:
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if stdout != expected_stdout:
        return "stdout differs from the in-process library result"
    return None
