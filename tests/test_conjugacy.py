"""The unique Nyldon rotation of a primitive word, by brute force and
by Melancon's elimination, and its round trip through the Lyndon
rotation of the same class."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    Alphabet,
    enumerate_nyldon,
    is_lyndon,
    is_nyldon,
    is_primitive,
    lyndon_conjugate,
    melancon_nyldon_conjugate,
    necklace_count,
    nyldon_conjugate_bruteforce,
    rotations,
)

from golden import NYLDON_23, POWER_BASE_WORD, w

A2 = Alphabet(2)


def test_bruteforce_pins():
    assert nyldon_conjugate_bruteforce(w("01")) == w("10")
    assert nyldon_conjugate_bruteforce(w("10110")) == w("10110")
    assert nyldon_conjugate_bruteforce(POWER_BASE_WORD) == NYLDON_23


def test_melancon_pins():
    assert melancon_nyldon_conjugate(w("01")) == w("10")
    assert melancon_nyldon_conjugate(w("001")) == w("100")
    assert melancon_nyldon_conjugate(POWER_BASE_WORD) == NYLDON_23


def test_non_primitive_inputs_rejected():
    only_primitive = "only primitive words have a Nyldon conjugate"
    with pytest.raises(ValueError, match=only_primitive):
        nyldon_conjugate_bruteforce(w("0101"))
    for v in (w("0101"), w("000"), ()):
        with pytest.raises(ValueError, match=only_primitive):
            melancon_nyldon_conjugate(v)


def test_methods_agree_on_primitive_words():
    for k, n in ((2, 12), (3, 8), (4, 6)):
        for v in Alphabet(k).words_upto(n):
            if is_primitive(v):
                assert melancon_nyldon_conjugate(v) == nyldon_conjugate_bruteforce(v)


def test_bruteforce_builds_one_rotation_at_a_time(monkeypatch):
    # all 1,024 rotations at once hold about 8.5 MB; one at a time, a few
    # of 8 kB.  is_nyldon is replaced by a comparison with the known
    # answer, so the peak is the rotation scan's own and the test does not
    # pay the quadratic factorization of every rotation under tracemalloc
    rng = random.Random(1024)
    words = [(1,) + (0,) * 1023]
    while len(words) < 2:
        v = tuple(rng.randrange(2) for _ in range(1024))
        if is_primitive(v):
            words.append(v)
    for v in words:
        c = melancon_nyldon_conjugate(v)
        monkeypatch.setattr("nyldon.conjugacy.is_nyldon", c.__eq__)
        tracemalloc.start()
        try:
            assert nyldon_conjugate_bruteforce(v) == c
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6, peak


def assert_is_the_nyldon_rotation(v, c):
    # the Nyldon rotation is unique, so any Nyldon rotation of v is it
    assert len(c) == len(v)
    assert bytes(c) in bytes(v + v)
    assert is_nyldon(c)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), min_size=100, max_size=2000).map(tuple)
    ).filter(is_primitive)
)
def test_long_melancon_conjugate_is_a_nyldon_rotation(v):
    assert_is_the_nyldon_rotation(v, melancon_nyldon_conjugate(v))


def staircase(n):
    # 1 1 0 1 0 0 1 0 0 0 ..., the blocks 1·0^j for j = 0, 1, 2, ...
    letters, j = [], 0
    while len(letters) < n:
        letters += [1] + [0] * j
        j += 1
    return tuple(letters[:n])


def fibonacci(n):
    # the fixed point of 0 -> 01, 1 -> 0
    shorter, longer = (0,), (0, 1)
    while len(longer) < n:
        shorter, longer = longer, longer + shorter
    return longer[:n]


def test_melancon_on_the_adversarial_families():
    n = 4096
    families = [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,), (1, 0) * (n // 2 - 2) + (1, 0, 0)]
    for v in (staircase(n), fibonacci(n)):
        families += [v, tuple(1 - a for a in v)]
    for v in families:
        c = melancon_nyldon_conjugate(v)
        assert type(c) is tuple
        assert_is_the_nyldon_rotation(v, c)
    # one long run, which costs its letters once since blocks are extended
    # in place; the answer is pinned, as is_nyldon is quadratic on it
    nyldon = (1,) + (0,) * (2 ** 15 - 1)
    for v in (nyldon, nyldon[::-1]):
        assert melancon_nyldon_conjugate(v) == nyldon


def test_exactly_one_nyldon_rotation_per_class(binary_nyldon_upto_12):
    for v in A2.words_upto(11):
        if is_primitive(v) and v == min(rotations(v)):
            assert sum(binary_nyldon_upto_12[r] for r in rotations(v)) == 1


def test_powers_are_never_nyldon():
    for u in A2.words_upto(7):
        for m in range(2, 15):
            if len(u) * m > 14:
                break
            assert not is_nyldon(u * m)


def test_class_count_matches_the_necklace_formula(binary_nyldon_upto_12):
    for n in range(1, 13):
        members = sum(
            1 for v, m in binary_nyldon_upto_12.items() if m and len(v) == n
        )
        assert members == necklace_count(2, n)


def test_conversion_pins():
    assert melancon_nyldon_conjugate(w("01")) == w("10")
    assert lyndon_conjugate(w("10")) == w("01")
    assert melancon_nyldon_conjugate(w("0")) == w("0")
    assert melancon_nyldon_conjugate(w("0001011")) == w("1011000")
    assert melancon_nyldon_conjugate(w("01101111101111011101111")) == NYLDON_23
    assert lyndon_conjugate(NYLDON_23) == w("01101111101111011101111")


def test_conversions_invert_each_other():
    for v in enumerate_nyldon(A2, 10):
        back = lyndon_conjugate(v)
        assert is_lyndon(back)
        assert melancon_nyldon_conjugate(back) == v
        # both live in the same conjugacy class
        assert sorted(rotations(back)) == sorted(rotations(v))
