"""The output-sensitive generators behind the enumerations, checked
against the k**n filters of the oracle, the necklace formula and the
standard factorization, and the work budgets of the size commands."""

import pytest

from nyldon import (
    Alphabet,
    count_by_length,
    counting_bijection,
    enumerate_by_filter,
    enumerate_lyndon,
    enumerate_nyldon,
    is_nyldon,
    lazard_eliminated,
    lazard_run,
    lazard_stepcount_nyldon,
    necklace_count,
    nyldon_code,
    standard_factorization,
)
from nyldon.factorization import _nyldon_by_length
from nyldon.lyndon import _lyndon_by_length, _lyndon_words
from nyldon.words import ENUMERATION_BUDGET, _check_enumeration_budget

A2 = Alphabet(2)


@pytest.mark.parametrize("k, max_len", [(1, 6), (2, 14), (3, 8), (4, 6)])
def test_generators_match_the_filters(k, max_len):
    alphabet = Alphabet(k)
    nyldon = enumerate_by_filter("nyldon", alphabet, max_len)
    assert enumerate_nyldon(alphabet, max_len) == nyldon
    assert enumerate_lyndon(alphabet, max_len) == enumerate_by_filter("lyndon", alphabet, max_len)
    # Duval's successor step lists them in lexicographic order, and under
    # the reversed letter order the Lyndon words are the plain ones with
    # each letter a read as k-1-a, in the same order
    lyndon = sorted(enumerate_lyndon(alphabet, max_len))
    assert _lyndon_words(alphabet, max_len) == lyndon
    assert _lyndon_words(alphabet, max_len, reverse=True) == [tuple(k - 1 - a for a in v) for v in lyndon]
    for n in range(1, max_len + 1):
        assert nyldon_code(alphabet, n) == {v for v in nyldon if len(v) == n}


@pytest.mark.parametrize("k, max_len", [(2, 20), (3, 12)])
def test_counts_match_the_necklace_formula(k, max_len):
    expected = [necklace_count(k, n) for n in range(1, max_len + 1)]
    assert count_by_length("nyldon", Alphabet(k), max_len) == expected
    assert count_by_length("lyndon", Alphabet(k), max_len) == expected


@pytest.mark.parametrize("k, max_len", [(2, 14), (3, 8)])
def test_recorded_right_parts_are_the_standard_factorizations(k, max_len):
    # the Hall-set recurrence builds uv from its standard factorization u.v:
    # the paper's right Lazard property, read off word by word
    groups = _nyldon_by_length(Alphabet(k), max_len)
    assert all(right == () for right in groups[1].values())
    for group in groups[2:]:
        for v, right in group.items():
            left = v[:len(v) - len(right)]
            assert standard_factorization(v) == (left, right)
            assert is_nyldon(left) and left > right


def test_enumeration_budget_boundary():
    # 2-letter length 21 is the largest accepted enumeration; 22 is refused
    _check_enumeration_budget("Nyldon", A2, 21)
    with pytest.raises(ValueError, match=f"k=2 letters up to length n=22 .* {ENUMERATION_BUDGET}"):
        _check_enumeration_budget("Nyldon", A2, 22)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("family, call", [
    ("Lyndon", lambda n: _lyndon_words(A2, n)),
    ("Lyndon", lambda n: _lyndon_words(A2, n, reverse=True)),
    ("Lyndon", lambda n: _lyndon_by_length(A2, n)),
    ("Nyldon", lambda n: _nyldon_by_length(A2, n)),
    ("Lyndon", lambda n: enumerate_lyndon(A2, n)),
    ("Nyldon", lambda n: enumerate_nyldon(A2, n)),
    ("Lyndon", lambda n: count_by_length("lyndon", A2, n)),
    ("Nyldon", lambda n: count_by_length("nyldon", A2, n)),
    ("Nyldon", lambda n: nyldon_code(A2, n)),
    ("Nyldon", lambda n: lazard_stepcount_nyldon(A2, n)),
], ids=["_lyndon_words", "_lyndon_words-reverse", "_lyndon_by_length", "_nyldon_by_length",
        "enumerate_lyndon", "enumerate_nyldon", "count_by_length-lyndon", "count_by_length-nyldon",
        "nyldon_code", "lazard_stepcount_nyldon"])
def test_generators_refuse_length_bounds_below_one(family, call, n):
    # Duval's successor step and the Hall-set recurrence own the bound, and
    # the wrappers pass their error through
    with pytest.raises(ValueError) as exc:
        call(n)
    assert str(exc.value) == (
        f"enumerating {family} words with k=2 letters up to length n={n} needs n >= 1")


@pytest.mark.parametrize("call", [
    lambda: enumerate_nyldon(A2, 40),
    lambda: enumerate_lyndon(A2, 40),
    lambda: enumerate_nyldon(Alphabet(1), 10 ** 9),
    lambda: enumerate_lyndon(Alphabet(10 ** 9), 1),
    lambda: count_by_length("nyldon", A2, 10 ** 9),
    lambda: nyldon_code(A2, 30),
    lambda: counting_bijection(A2, 17),
    lambda: counting_bijection(A2, 10 ** 9),
    # lazard_run charges each working set before it builds it, so these three
    # fail on their first two sets: 10^9 words 1 0^j, 10^9 letters, and
    # k(k+1)/2 > 3,250,000 words for a run that loses one letter a step
    lambda: lazard_run("right", "min", A2, 10 ** 9),
    lambda: lazard_run("right", "min", Alphabet(10 ** 9), 2),
    lambda: lazard_run("left", "min", Alphabet(2550), 1),
    # Duval's successor step must be refused before it builds anything of size n
    lambda: enumerate_lyndon(A2, 10 ** 9),
    lambda: lazard_eliminated("left", "max", A2, 10 ** 9),
])
def test_exponential_work_is_refused_before_it_starts(call):
    with pytest.raises(ValueError, match="needs more than the budget of"):
        call()
