"""Block-code checks on the fixed-length Nyldon codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nyldon import (
    Alphabet,
    in_code_star,
    is_circular_bounded,
    is_comma_free_definitional,
    is_comma_free_uniform,
    nyldon_code,
    nyldon_comma_free_classification,
    nyldon_comma_free_table,
)

from golden import (
    COMMA_FREE_ALT_TRIPLE_K2_N7,
    COMMA_FREE_WITNESS_K2_N7,
    COMMA_FREE_WITNESS_K3_N3,
    COMMA_FREE_WITNESS_K4_N2,
    w,
)

ROOT = Path(__file__).resolve().parents[1]


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


def test_table_matches_the_classification():
    table = nyldon_comma_free_table(4, 7)
    assert len(table) == 3 * 7
    for (k, n), holds in table.items():
        assert holds == nyldon_comma_free_classification(k, n)


def test_table_disagreement_raises_under_optimization(tmp_path):
    # python -O strips bare asserts; the table's check must survive it
    child = (
        "import nyldon.codes as codes\n"
        "right = codes.nyldon_comma_free_classification\n"
        "codes.nyldon_comma_free_classification = lambda k, n: not right(k, n)\n"
        "codes.nyldon_comma_free_table(2, 2)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        capture_output=True, text=True, env=env, cwd=tmp_path,
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


def test_circular_bound_validation():
    with pytest.raises(ValueError):
        is_circular_bounded(code(2, 3), 3, 5)  # below two blocks


def test_uniformity_validation():
    with pytest.raises(ValueError):
        is_comma_free_uniform({w("1"), w("10")}, 2)
    with pytest.raises(ValueError):
        is_circular_bounded({w("1"), w("10")}, 2)
