"""Nyldon factorization, membership, suffixes, the two-part split,
prefix constraints."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    Alphabet,
    enumerate_nyldon,
    forbidden_prefix_family,
    is_forbidden_prefix_upto,
    is_nyldon,
    longest_nyldon_suffix,
    nyldon_factorize,
    standard_factorization,
)

from golden import BINARY_COUNTS_1_14, NYLDON_UPTO_7, factors, w

A2 = Alphabet(2)


def test_factorize_pins():
    assert nyldon_factorize(w("10100")) == factors("10|100")
    assert nyldon_factorize(w("1011011")) == factors("101|1011")
    assert nyldon_factorize(w("1001010010")) == factors("10010|10010")
    assert nyldon_factorize(w("0")) == factors("0")
    assert nyldon_factorize(w("00")) == factors("0|0")


def test_factorize_rejects_empty():
    with pytest.raises(ValueError):
        nyldon_factorize(())
    with pytest.raises(ValueError, match="the empty word has no Nyldon suffix"):
        longest_nyldon_suffix(())


def test_factorize_properties(binary_nyldon_upto_12):
    # concatenation identity, factors Nyldon, nondecreasing order
    for v in A2.words_upto(12):
        fs = nyldon_factorize(v)
        assert sum(fs, ()) == v
        assert all(binary_nyldon_upto_12[f] for f in fs)
        assert all(fs[i] <= fs[i + 1] for i in range(len(fs) - 1))


def test_membership_pins():
    assert is_nyldon(w("10110"))
    assert is_nyldon(w("1"))
    assert not is_nyldon(w("1010"))
    assert not is_nyldon(w("00"))


def test_single_factor_iff_member(binary_nyldon_upto_12):
    for v, member in binary_nyldon_upto_12.items():
        assert member == (len(nyldon_factorize(v)) == 1)


def test_enumeration_matches_frozen_list():
    assert tuple(enumerate_nyldon(A2, 7)) == NYLDON_UPTO_7


def test_enumeration_prefix():
    assert [A2.format(v) for v in enumerate_nyldon(A2, 3)] == [
        "0", "1", "10", "100", "101",
    ]


def test_counts_match_the_lyndon_counts():
    counts = {}
    for v in enumerate_nyldon(A2, 7):
        counts[len(v)] = counts.get(len(v), 0) + 1
    assert [counts[n] for n in range(1, 8)] == list(BINARY_COUNTS_1_14[:7])


def test_longest_suffix_pins():
    assert longest_nyldon_suffix(w("10100")) == w("100")
    assert longest_nyldon_suffix(w("100"), proper=True) == w("0")
    assert longest_nyldon_suffix(w("1011101"), proper=True) == w("101")
    # a Nyldon word is its own longest Nyldon suffix
    assert longest_nyldon_suffix(w("10110")) == w("10110")


def test_longest_suffix_is_the_last_factor():
    for v in A2.words_upto(10):
        assert longest_nyldon_suffix(v) == nyldon_factorize(v)[-1]


def test_proper_suffix_is_the_first_nyldon_suffix():
    for v in itertools.chain(A2.words_upto(12), Alphabet(3).words_upto(8)):
        if len(v) >= 2:
            scan = next(v[i:] for i in range(1, len(v)) if is_nyldon(v[i:]))
            assert longest_nyldon_suffix(v, proper=True) == scan


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), min_size=100, max_size=300).map(tuple)
    )
)
def test_long_proper_suffix_is_the_first_nyldon_suffix(v):
    scan = next(v[i:] for i in range(1, len(v)) if is_nyldon(v[i:]))
    assert longest_nyldon_suffix(v, proper=True) == scan


def test_proper_suffix_needs_two_letters():
    with pytest.raises(ValueError):
        longest_nyldon_suffix(w("1"), proper=True)


def test_nyldon_suffixes_of_members_are_smaller(binary_nyldon_upto_12):
    for v, member in binary_nyldon_upto_12.items():
        if member and len(v) >= 2:
            for i in range(1, len(v)):
                if binary_nyldon_upto_12[v[i:]]:
                    assert v[i:] < v


def test_smaller_suffixes_do_not_imply_membership():
    # every Nyldon proper suffix of 1011011 (namely 1011 and 1) is
    # lex-smaller than it, yet the word itself is not Nyldon: the
    # suffix condition is necessary, not sufficient
    v = w("1011011")
    nyl_suffixes = [v[i:] for i in range(1, len(v)) if is_nyldon(v[i:])]
    assert nyl_suffixes == [w("1011"), w("1")]
    assert all(s < v for s in nyl_suffixes)
    assert not is_nyldon(v)


def test_membership_from_the_split_at_the_longest_proper_suffix(
    binary_nyldon_upto_12,
):
    # with w = ps, s the longest proper Nyldon suffix: w is Nyldon
    # exactly when the last factor of p is lex-greater than s
    for v, member in binary_nyldon_upto_12.items():
        if len(v) < 2:
            continue
        s = longest_nyldon_suffix(v, proper=True)
        p = v[: len(v) - len(s)]
        assert member == (nyldon_factorize(p)[-1] > s)


def test_standard_factorization_pins():
    assert standard_factorization(w("1011101")) == (w("1011"), w("101"))
    assert standard_factorization(w("100")) == (w("10"), w("0"))
    assert standard_factorization(w("10")) == (w("1"), w("0"))
    assert type(standard_factorization(w("100"))) is tuple


def test_standard_factorization_properties(binary_nyldon_upto_12):
    for v, member in binary_nyldon_upto_12.items():
        if member and len(v) >= 2:
            p, s = standard_factorization(v)
            assert p + s == v
            assert binary_nyldon_upto_12[p] and binary_nyldon_upto_12[s]
            assert p > s
            assert s == longest_nyldon_suffix(v, proper=True)


def test_standard_factorization_rejects_bad_input():
    with pytest.raises(ValueError):
        standard_factorization(w("1010"))  # not Nyldon
    with pytest.raises(ValueError):
        standard_factorization(w("1"))     # too short


def test_members_start_with_a_descent(binary_nyldon_upto_12):
    for v, member in binary_nyldon_upto_12.items():
        if member and len(v) >= 2:
            assert v[0] > v[1]


def test_ternary_members_start_with_10_20_or_21():
    a3 = Alphabet(3)
    starts = {v[:2] for v in enumerate_nyldon(a3, 4) if len(v) >= 2}
    assert starts == {(1, 0), (2, 0), (2, 1)}


def test_forbidden_prefix_pins():
    assert is_forbidden_prefix_upto(w("1010"), 12, A2)
    # 1011011 is Nyldon, so 101101 is not forbidden; the square 101101
    # itself is not, so up to its own length it is
    assert not is_forbidden_prefix_upto(w("101101"), 7, A2)
    assert is_forbidden_prefix_upto(w("101101"), 6, A2)
    assert not is_forbidden_prefix_upto(w("10"), 7, A2)
    # a bound of the prefix's own length still tests the prefix itself
    assert not is_forbidden_prefix_upto(w("10"), 2, A2)


def test_forbidden_prefix_errors():
    with pytest.raises(ValueError):
        is_forbidden_prefix_upto((), 4, A2)
    with pytest.raises(ValueError):
        is_forbidden_prefix_upto(w("1010"), 3, A2)  # bound below |prefix|


def test_family_instances():
    assert forbidden_prefix_family(1, 1) == w("1010")
    assert forbidden_prefix_family(0, 1) == w("11")
    assert forbidden_prefix_family(0, 2) == w("11011")
    assert forbidden_prefix_family(1, 3) == w("1011011")
    assert forbidden_prefix_family(0, 4) == w("10011011")
    for k in range(5):
        assert forbidden_prefix_family(k, 2) == (1,) + (0,) * k + (1, 0, 1, 1)


def test_family_rejects_bad_arguments():
    with pytest.raises(ValueError):
        forbidden_prefix_family(-1, 1)
    with pytest.raises(ValueError):
        forbidden_prefix_family(0, 5)


def test_small_family_instances_are_forbidden():
    for family in (1, 2, 3, 4):
        for k_param in (0, 1):
            p = forbidden_prefix_family(k_param, family)
            assert is_forbidden_prefix_upto(p, len(p) + 4, A2)
