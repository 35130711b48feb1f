"""Lyndon membership, Duval factorization, conjugates, enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    Alphabet,
    enumerate_lyndon,
    is_lyndon,
    is_primitive,
    lyndon_conjugate,
    lyndon_factorize,
    recursive_is_lyndon,
    rotations,
)

from golden import BINARY_COUNTS_1_14, LYNDON_UPTO_7, factors, w

A2 = Alphabet(2)


def test_membership_pins():
    assert is_lyndon(w("01"))
    assert is_lyndon(w("0"))
    assert not is_lyndon(w("0101"))  # a square
    assert not is_lyndon(w("10"))    # rotation 01 is smaller


def test_membership_rejects_empty():
    with pytest.raises(ValueError):
        is_lyndon(())


def test_minimal_rotation_characterization(binary_lyndon_upto_12):
    for v, member in binary_lyndon_upto_12.items():
        assert member == (is_primitive(v) and min(rotations(v)) == v)


def test_smaller_than_all_proper_suffixes(binary_lyndon_upto_12):
    # equivalent characterization: strictly below every nonempty
    # proper suffix
    for v, member in binary_lyndon_upto_12.items():
        assert member == all(v < v[i:] for i in range(1, len(v)))


def test_factorization_pins():
    assert lyndon_factorize(w("1001")) == factors("1|001")
    assert lyndon_factorize(w("0110")) == factors("011|0")
    assert lyndon_factorize(w("1010")) == factors("1|01|0")
    assert lyndon_factorize(w("000")) == factors("0|0|0")
    assert lyndon_factorize(w("01")) == factors("01")


def test_factorization_rejects_empty():
    with pytest.raises(ValueError):
        lyndon_factorize(())


def test_factorization_properties(binary_lyndon_upto_12):
    # concatenation identity, factors Lyndon, nonincreasing order
    for v in A2.words_upto(12):
        fs = lyndon_factorize(v)
        assert sum(fs, ()) == v
        assert all(binary_lyndon_upto_12[f] for f in fs)
        assert all(fs[i] >= fs[i + 1] for i in range(len(fs) - 1))


def test_single_factor_iff_member(binary_lyndon_upto_12):
    for v, member in binary_lyndon_upto_12.items():
        assert member == (len(lyndon_factorize(v)) == 1)


def test_recursive_oracle_agreement_small():
    for v in A2.words_upto(9):
        assert is_lyndon(v) == recursive_is_lyndon(v)
    a3 = Alphabet(3)
    for v in a3.words_upto(6):
        assert is_lyndon(v) == recursive_is_lyndon(v)


def test_conjugate_pins():
    assert lyndon_conjugate(w("10")) == w("01")
    assert lyndon_conjugate(w("001")) == w("001")
    assert lyndon_conjugate(w("110")) == w("011")


def test_conjugate_of_23_letter_word():
    assert lyndon_conjugate(w("01111011011111011110111")) == w(
        "01101111101111011101111"
    )


def test_conjugate_rejects_non_primitive():
    with pytest.raises(ValueError):
        lyndon_conjugate(w("0101"))


def test_conjugate_is_the_lyndon_rotation():
    for v in itertools.chain(
        A2.words_upto(12), Alphabet(3).words_upto(8), Alphabet(4).words_upto(6)
    ):
        if is_primitive(v):
            c = lyndon_conjugate(v)
            assert is_lyndon(c)
            assert c == min(rotations(v))


# words of hundreds of letters over two to four letters
long_words = st.integers(2, 4).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), min_size=100, max_size=1000).map(tuple)
)


@settings(max_examples=40, deadline=None)
@given(long_words)
def test_long_membership_is_smaller_than_all_proper_suffixes(v):
    # the least rotation is Lyndon whenever v is primitive, so both
    # verdicts get exercised
    for u in (v, min(rotations(v))):
        assert is_lyndon(u) == all(u < u[i:] for i in range(1, len(u)))


@settings(max_examples=40, deadline=None)
@given(long_words)
def test_long_conjugate_is_the_least_rotation(v):
    if is_primitive(v):
        assert lyndon_conjugate(v) == min(rotations(v))


def test_enumeration_matches_frozen_list():
    assert tuple(enumerate_lyndon(A2, 7)) == LYNDON_UPTO_7


def test_enumeration_counts():
    counts = {}
    for v in enumerate_lyndon(A2, 7):
        counts[len(v)] = counts.get(len(v), 0) + 1
    assert [counts[n] for n in range(1, 8)] == list(BINARY_COUNTS_1_14[:7])


def test_length_4_words():
    quads = [v for v in enumerate_lyndon(A2, 4) if len(v) == 4]
    assert quads == [w("0001"), w("0011"), w("0111")]


def test_products_sit_between_their_factors():
    # f, g, fg all Lyndon forces f < fg < g
    lyndon = enumerate_lyndon(A2, 8)
    members = set(lyndon)
    seen = 0
    for f in lyndon:
        for g in lyndon:
            fg = f + g
            if len(fg) <= 8 and fg in members:
                assert f < fg < g
                seen += 1
    assert seen > 50  # the sweep is not vacuous
