"""Block-code checks on the fixed-length Nyldon codes."""

import random
import subprocess
import sys
from collections import Counter
from itertools import islice, product

import pytest

from nyldon import (
    Alphabet,
    in_code_star,
    is_circular_bounded,
    is_comma_free_definitional,
    is_comma_free_uniform,
    is_primitive,
    nyldon_code,
    nyldon_comma_free_classification,
    nyldon_comma_free_table,
    rotations,
)

from nyldon.codes import CIRCULAR_MESSAGE_BUDGET

from golden import (
    COMMA_FREE_ALT_TRIPLE_K2_N7,
    COMMA_FREE_WITNESS_K2_N7,
    COMMA_FREE_WITNESS_K3_N3,
    COMMA_FREE_WITNESS_K4_N2,
    w,
)


def code(k, n):
    return nyldon_code(Alphabet(k), n)


def test_code_contents():
    assert code(2, 2) == {w("10")}
    assert code(2, 3) == {w("100"), w("101")}
    assert code(3, 1) == {w("0"), w("1"), w("2")}
    assert len(code(2, 5)) == 6


def test_in_code_star():
    c = code(2, 3)
    assert in_code_star(c, 3, ())
    assert in_code_star(c, 3, w("100101"))
    assert not in_code_star(c, 3, w("1001"))     # wrong total length
    assert not in_code_star(c, 3, w("000100"))   # 000 is not a codeword
    with pytest.raises(ValueError, match="codeword length must be at least 1"):
        in_code_star(frozenset(), 0, ())


def test_table_refuses_empty_ranges():
    with pytest.raises(ValueError, match="k_max must be at least 2"):
        nyldon_comma_free_table(1, 3)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        nyldon_comma_free_table(2, 0)


def test_verdict_shapes():
    good = is_comma_free_uniform(code(2, 5), 5)
    assert good.holds and good.witness is None
    bad = is_comma_free_uniform(code(4, 2), 2)
    assert not bad.holds and bad.witness is not None


def test_witness_pins():
    assert is_comma_free_uniform(code(4, 2), 2).witness == COMMA_FREE_WITNESS_K4_N2
    assert is_comma_free_uniform(code(3, 3), 3).witness == COMMA_FREE_WITNESS_K3_N3
    assert is_comma_free_uniform(code(2, 7), 7).witness == COMMA_FREE_WITNESS_K2_N7


def test_witnesses_revalidate():
    # a failure triple (u, x, v): x is a codeword occurring astride
    # the boundary of the codeword message u+x+v
    for k, n, (u, x, v) in (
        (4, 2, COMMA_FREE_WITNESS_K4_N2),
        (3, 3, COMMA_FREE_WITNESS_K3_N3),
        (2, 7, COMMA_FREE_WITNESS_K2_N7),
        (2, 7, COMMA_FREE_ALT_TRIPLE_K2_N7),
    ):
        c = code(k, n)
        assert x in c
        assert u and v
        assert len(u) + len(v) == n
        assert in_code_star(c, n, u + x + v)
        assert len(u) < n < len(u) + len(x)


def test_classification_rule():
    assert nyldon_comma_free_classification(2, 1)
    assert nyldon_comma_free_classification(3, 2)
    assert not nyldon_comma_free_classification(4, 2)
    assert nyldon_comma_free_classification(2, 3)
    assert nyldon_comma_free_classification(2, 6)
    assert not nyldon_comma_free_classification(2, 7)
    assert not nyldon_comma_free_classification(3, 3)
    # over one letter every code past length 1 is empty, hence comma-free
    for n in range(1, 7):
        assert nyldon_comma_free_classification(1, n)
        assert is_comma_free_uniform(code(1, n), n).holds, n


def test_table_matches_the_classification():
    table = nyldon_comma_free_table(4, 7)
    assert len(table) == 3 * 7
    for (k, n), holds in table.items():
        assert holds == nyldon_comma_free_classification(k, n)


def test_nyldon_codes_are_circular_at_the_exact_bound():
    # messages of n*|C| letters decide circularity exactly
    verdicts = {}
    for k, n_max in ((2, 9), (3, 5), (4, 4), (5, 3)):
        for n in range(1, n_max + 1):
            c = code(k, n)
            verdicts[k, n] = is_circular_bounded(c, n, n * len(c))
    assert len(verdicts) == 21
    assert set(verdicts.values()) == {(True, None)}


def test_table_disagreement_raises_under_optimization(tmp_path, checkout_env):
    # python -O strips bare asserts; the table's check must survive it
    child = (
        "import nyldon.codes as codes\n"
        "right = codes.nyldon_comma_free_classification\n"
        "codes.nyldon_comma_free_classification = lambda k, n: not right(k, n)\n"
        "codes.nyldon_comma_free_table(2, 2)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "AssertionError" in proc.stderr and "k=2, n=1" in proc.stderr


def test_fast_check_agrees_with_the_definition():
    # the two-block reduction must agree with the all-messages search
    for n in range(1, 7):
        fast = is_comma_free_uniform(code(2, n), n)
        slow = is_comma_free_definitional(code(2, n), n)
        assert fast.holds == slow.holds
    fast = is_comma_free_uniform(code(3, 3), 3)
    slow = is_comma_free_definitional(code(3, 3), 3)
    assert fast.holds == slow.holds is False


def test_definitional_witnesses_revalidate():
    c = code(3, 3)
    verdict = is_comma_free_definitional(c, 3)
    assert not verdict.holds
    u, x, v = verdict.witness
    assert x in c
    assert in_code_star(c, 3, u + x + v)


def test_circular_single_codeword_cases():
    assert is_circular_bounded({w("10")}, 2).holds
    verdict = is_circular_bounded({w("0101")}, 4, 8)
    assert not verdict.holds
    assert verdict.witness == (w("01"), w("01"))


def test_comma_free_codes_here_are_circular():
    for k, n in ((2, 4), (2, 5), (2, 6), (3, 2)):
        c = code(k, n)
        assert is_comma_free_uniform(c, n).holds
        assert is_circular_bounded(c, n, 3 * n).holds


def test_circular_search_refuses_past_its_budget():
    # 18 codewords: 27 of the 324 two-block messages survive and none of
    # their extensions, so 828 messages decide it at the default bound
    assert is_circular_bounded(code(3, 4), 4).holds
    # 99 codewords: 1,776 two-block survivors would take three blocks to
    # 185,724 messages, past the budget
    with pytest.raises(ValueError, match="99 codewords of length 10 up to 40 letters needs more"
                       " than the budget of 100000 messages"):
        is_circular_bounded(code(2, 10), 10)
    # each other refusal left is one the unpruned search, trying all sum |C|^b
    # messages of up to four blocks at the default bound, made too
    for k, n in ((2, 11), (3, 6), (3, 7), (4, 5), (5, 4), (6, 3), (20, 2)):
        c = code(k, n)
        with pytest.raises(ValueError, match=f"{len(c)} codewords .* budget of 100000 messages"):
            is_circular_bounded(c, n)
        assert sum(len(c) ** b for b in range(1, 5)) > CIRCULAR_MESSAGE_BUDGET
    assert is_circular_bounded(code(3, 3), 3).holds
    # the empty code parses only the empty message, at any bound
    assert is_circular_bounded(set(), 2, 10 ** 9).holds
    # 2 codewords need at most 2 blocks, however long the bound
    assert is_circular_bounded(code(2, 3), 3, 1000).holds


def circular_definitional(code, n, max_total, most=1000):
    """The first (u, v) with uv a message of at most max_total letters,
    cut anywhere but at a block boundary, and vu in C*; messages by
    block count then in lexicographic order, cuts left to right.  None
    when the code is circular up to the bound; "refused" once it has
    tried most messages without a hit, which keeps this exhaustive
    search quick."""
    words = frozenset(code)
    ordered = sorted(words)
    messages = (msg for b in range(1, max_total // n + 1) for msg in product(ordered, repeat=b))
    for msg in islice(messages, most):
        m = sum(msg, ())
        for c in range(1, len(m)):
            if c % n and in_code_star(words, n, m[c:] + m[:c]):
                return m[:c], m[c:]
    return None if next(messages, None) is None else "refused"


def test_circular_search_matches_the_definition():
    rng = random.Random(8)
    compared = several_blocks = 0
    for _ in range(1200):
        k, n = rng.randint(2, 4), rng.randint(1, 5)
        candidates = list(product(range(k), repeat=n))
        c = rng.sample(candidates, rng.randint(0, min(8, len(candidates))))
        max_total = rng.randint(2 * n, 5 * n)
        expected = circular_definitional(c, n, max_total)
        if expected == "refused":
            continue
        verdict = is_circular_bounded(c, n, max_total)
        assert verdict == (expected is None, expected), (c, n, max_total)
        compared += 1
        several_blocks += expected is not None and len(expected[0] + expected[1]) > n
    assert compared > 1000 and several_blocks > 0
    # bounds of n..2n-1 letters hold one codeword: only its rotations are tried
    compared = witnessed = 0
    for _ in range(1200):
        k, n = rng.randint(2, 4), rng.randint(1, 5)
        candidates = list(product(range(k), repeat=n))
        c = rng.sample(candidates, rng.randint(0, min(8, len(candidates))))
        max_total = rng.randint(n, 2 * n - 1)
        expected = circular_definitional(c, n, max_total)
        verdict = is_circular_bounded(c, n, max_total)
        assert verdict == (expected is None, expected), (c, n, max_total)
        compared += 1
        witnessed += expected is not None
    assert witnessed > 0 and compared - witnessed > 0
    assert is_circular_bounded({w("0101")}, 4, 4) == (False, (w("01"), w("01")))
    # the witness spans 3 blocks, as many as there are codewords
    c = {w("0001"), w("0111"), w("1100")}
    witness = (w("00"), w("0111000111"))
    assert circular_definitional(c, 4, 16) == witness
    for max_total in (None, 12):
        assert is_circular_bounded(c, 4, max_total) == (False, witness)
    assert is_circular_bounded(c, 4, 8).holds
    # 9-12 codewords from distinct primitive conjugacy classes, so no one-block message
    # closes and most message prefixes die within a block or two; each code hides a
    # message m whose rotation by r also parses, so some witnesses take three blocks
    compared = past_the_unpruned_budget = 0
    blocks = Counter()
    for _ in range(200):
        k, n = rng.choice(((4, 3), (5, 3), (3, 4)))
        while True:
            m, r = tuple(rng.randrange(k) for _ in range(3 * n)), rng.randrange(1, n)
            c = {v[i:i + n] for v in (m, rotations(m)[r]) for i in range(0, 3 * n, n)}
            classes = {min(rotations(x)) for x in c}
            if len(classes) == 6 and all(map(is_primitive, c)):
                break
        others = {min(rotations(x)) for x in product(range(k), repeat=n) if is_primitive(x)} - classes
        c |= {rotations(x)[rng.randrange(n)] for x in rng.sample(sorted(others), rng.randint(3, 6))}
        max_total = rng.randint(n, 6 * n)
        # 2000 tries cover every message of up to three blocks, where the hidden
        # witness lies, so the reference never gives up; the search, charged at
        # most those 1,884 messages, never refuses
        expected = circular_definitional(c, n, max_total, most=2000)
        verdict = is_circular_bounded(c, n, max_total)
        assert verdict == (expected is None, expected), (c, n, max_total)
        compared += 1
        messages = sum(len(c) ** b for b in range(1, min(max_total // n, len(c)) + 1))
        past_the_unpruned_budget += messages > CIRCULAR_MESSAGE_BUDGET
        blocks[0 if expected is None else len(expected[0] + expected[1]) // n] += 1
    assert compared == 200 and past_the_unpruned_budget > 0
    assert blocks[0] > 0 and blocks[2] > 0 and blocks[3] > 0 and set(blocks) <= {0, 2, 3}
    # the Nyldon codes the CLI searches at its default bound of 4n letters
    for k, n in [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)]:
        c = code(k, n)
        assert circular_definitional(c, n, 4 * n, most=5000) is None
        assert is_circular_bounded(c, n) == (True, None)


def test_circular_bound_validation():
    below_one_block = "a bound of 2 letters is below one codeword of length 3"
    with pytest.raises(ValueError, match=below_one_block):
        is_circular_bounded(code(2, 3), 3, 2)


def test_uniformity_validation():
    with pytest.raises(ValueError):
        is_comma_free_uniform({w("1"), w("10")}, 2)
    with pytest.raises(ValueError):
        is_circular_bounded({w("1"), w("10")}, 2)
    for check in (is_comma_free_uniform, is_circular_bounded):
        with pytest.raises(ValueError, match="codeword length must be at least 1"):
            check(frozenset(), 0)
