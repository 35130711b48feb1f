"""The brute-force reference implementations and counting helpers."""

import pytest

from nyldon import (
    Alphabet,
    count_by_length,
    counting_bijection,
    enumerate_by_filter,
    exhaustive_factorizations,
    is_lyndon,
    is_nyldon,
    lyndon_factorize,
    necklace_count,
    nyldon_factorize,
    recursive_is_lyndon,
    recursive_is_nyldon,
)

from golden import BINARY_COUNTS_1_14, COUNTING_MAP_LEN4, w

A2 = Alphabet(2)


def test_recursive_membership_pins():
    assert recursive_is_nyldon(w("10"))
    assert recursive_is_nyldon(w("10110"))
    assert not recursive_is_nyldon(w("00"))
    assert recursive_is_lyndon(w("01"))
    assert not recursive_is_lyndon(w("10"))


def test_recursive_membership_rejects_empty():
    with pytest.raises(ValueError):
        recursive_is_nyldon(())
    with pytest.raises(ValueError):
        recursive_is_lyndon(())


def test_recursive_agrees_with_production_small():
    for v in A2.words_upto(8):
        assert recursive_is_nyldon(v) == is_nyldon(v)
        assert recursive_is_lyndon(v) == is_lyndon(v)


def test_exhaustive_factorization_pins():
    assert exhaustive_factorizations(w("10100"), "nyldon") == [
        (w("10"), w("100"))
    ]
    assert exhaustive_factorizations(w("1010"), "nyldon") == [
        (w("10"), w("10"))
    ]
    assert exhaustive_factorizations(w("0"), "nyldon") == [
        (w("0"),)
    ]
    assert exhaustive_factorizations(w("0"), "lyndon") == [
        (w("0"),)
    ]


def test_exhaustive_search_finds_exactly_one_small():
    for v in (*A2.words_upto(10), *Alphabet(3).words_upto(6)):
        assert exhaustive_factorizations(v, "nyldon") == [nyldon_factorize(v)]
        assert exhaustive_factorizations(v, "lyndon") == [lyndon_factorize(v)]


def test_exhaustive_factorization_errors():
    with pytest.raises(ValueError, match="empty word"):
        exhaustive_factorizations((), "nyldon")
    with pytest.raises(ValueError, match="length 11 exceeds the search bound 10"):
        exhaustive_factorizations((0,) * 11, "nyldon")


def test_necklace_count_values():
    assert [necklace_count(2, n) for n in range(1, 15)] == list(BINARY_COUNTS_1_14)
    assert necklace_count(3, 1) == 3
    assert necklace_count(3, 4) == 18
    assert [necklace_count(0, n) for n in range(1, 5)] == [0, 0, 0, 0]
    assert [necklace_count(1, n) for n in range(1, 8)] == [1, 0, 0, 0, 0, 0, 0]
    for (k, n), count in {
        (2, 30): 35790267,
        (2, 60): 19215358392200893,
        (2, 64): 288230376084602880,
        (3, 24): 11767874940,
        (10, 12): 83333249175,
        (6, 36): 286511799958067610667737360,
    }.items():
        assert necklace_count(k, n) == count, (k, n)


def test_count_by_length_both_families():
    assert count_by_length("nyldon", A2, 9) == list(BINARY_COUNTS_1_14[:9])
    assert count_by_length("lyndon", A2, 9) == list(BINARY_COUNTS_1_14[:9])
    a3 = Alphabet(3)
    assert count_by_length("nyldon", a3, 6) == [
        necklace_count(3, n) for n in range(1, 7)
    ]


def test_bijection_matches_the_frozen_table():
    assert counting_bijection(A2, 4) == COUNTING_MAP_LEN4


def test_bijection_pins():
    m = counting_bijection(A2, 4)
    assert m[w("1010")] == w("0110")
    assert m[w("1111")] == w("0000")
    assert m[w("0110")] == w("1100")


def test_bijection_properties():
    for n in (5, 6):
        m = counting_bijection(A2, n)
        assert list(m) == sorted(m)  # `nyldon bijection` prints in this order
        assert len(set(m.values())) == len(m)  # injective
        assert set(m) == {
            v for v in A2.words_of_length(n) if not is_lyndon(v)
        }
        assert set(m.values()) == {
            v for v in A2.words_of_length(n) if not is_nyldon(v)
        }
        # factor-length multisets carry over
        for src, dst in m.items():
            assert sorted(len(f) for f in lyndon_factorize(src)) == sorted(
                len(f) for f in nyldon_factorize(dst)
            )


def test_bijection_budget_counts_every_word_up_to_the_length(monkeypatch):
    # 2 + 4 + 8 + 16 = 30 binary words of length at most 4: a budget of
    # exactly that answers, and one word less refuses
    monkeypatch.setattr("nyldon.oracle.BIJECTION_BUDGET", 30)
    assert counting_bijection(A2, 4) == COUNTING_MAP_LEN4
    monkeypatch.setattr("nyldon.oracle.BIJECTION_BUDGET", 29)
    with pytest.raises(ValueError, match="k=2 letters at length n=4 needs more than the budget of 29 words"):
        counting_bijection(A2, 4)


def test_bijection_needs_length_two():
    with pytest.raises(ValueError):
        counting_bijection(A2, 1)


def test_input_errors_are_value_errors():
    # an unknown family is named, as lazard_run names a bad side or selector
    for call in (lambda: count_by_length("foo", A2, 3),
                 lambda: enumerate_by_filter("foo", A2, 3),
                 lambda: exhaustive_factorizations(w("10"), "foo")):
        with pytest.raises(ValueError, match="'foo'"):
            call()
    with pytest.raises(ValueError):
        necklace_count(2, 0)
    with pytest.raises(ValueError, match="max_len must be at least 1"):
        enumerate_by_filter("nyldon", A2, 0)
