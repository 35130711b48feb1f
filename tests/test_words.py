"""Word primitives: rotations, primitivity, permutations, text."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    Alphabet,
    apply_permutation,
    format_factorization,
    is_primitive,
    reverse_permutation,
    rotations,
    words_of_length,
    words_upto,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


def test_rotations_examples():
    assert rotations((1, 0)) == [(1, 0), (0, 1)]
    assert rotations((0, 0, 0)) == [(0, 0, 0)] * 3
    assert rotations((0, 1, 1)) == [(0, 1, 1), (1, 1, 0), (1, 0, 1)]


def test_rotations_rejects_empty():
    with pytest.raises(ValueError):
        rotations(())


def test_primitivity_examples():
    assert not is_primitive((0, 1, 0, 1))
    assert is_primitive((1, 0))
    assert is_primitive((0,))
    # the empty word counts as a power
    assert not is_primitive(())


def is_power(w):
    n = len(w)
    return any(n % d == 0 and w == w[:d] * (n // d) for d in range(1, n))


def test_primitivity_matches_power_definition():
    for w in itertools.chain(words_upto(A2, 10), words_upto(A3, 7)):
        assert is_primitive(w) == (not is_power(w))


@st.composite
def powers(draw, lengths=None):
    """u**m with u over 1 to 4 letters, and one letter changed in about
    half of them.  Without lengths, |u| is 1..64 and m is drawn from
    exponents with one, two and three distinct prime factors; with
    lengths, |u| is a divisor of one of those exact lengths."""
    k = draw(st.integers(1, 4))
    if lengths is None:
        size = draw(st.integers(1, 64))
        m = draw(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 30, 35, 64)))
    else:
        n = draw(st.sampled_from(lengths))
        size = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        m = n // size
    rng = draw(st.randoms(use_true_random=False))
    w = [rng.randrange(k) for _ in range(size)] * m
    if draw(st.booleans()):
        w[rng.randrange(len(w))] = rng.randrange(k)
    return tuple(w)


@settings(max_examples=300, deadline=None)
@given(powers())
def test_primitivity_of_long_powers(w):
    assert is_primitive(w) == (not is_power(w))


# a prime, a prime power, and the product of the first six primes
@settings(max_examples=60, deadline=None)
@given(powers(lengths=(1009, 729, 30030)))
def test_primitivity_at_lengths_with_few_and_many_prime_factors(w):
    assert is_primitive(w) == (not is_power(w))


def test_primitive_iff_unique_among_rotations():
    for w in words_upto(A2, 8):
        assert is_primitive(w) == (rotations(w).count(w) == 1)


def test_apply_permutation_examples():
    assert apply_permutation((0, 1), (1, 0, 1, 1)) == (1, 0, 1, 1)
    assert apply_permutation((1, 0), (0, 1)) == (1, 0)
    assert apply_permutation((1, 0), (0, 0, 1, 1, 1)) == (1, 1, 0, 0, 0)
    assert apply_permutation((1, 0), ()) == ()


def test_apply_permutation_is_a_morphism():
    rng = random.Random(5)
    perm = (2, 0, 1)
    for _ in range(60):
        u = tuple(rng.randrange(3) for _ in range(rng.randrange(8)))
        v = tuple(rng.randrange(3) for _ in range(rng.randrange(8)))
        assert apply_permutation(perm, u + v) == (
            apply_permutation(perm, u) + apply_permutation(perm, v)
        )


def test_apply_permutation_rejects_bad_input():
    with pytest.raises(ValueError):
        apply_permutation((0, 0), (0, 1))  # not a bijection
    with pytest.raises(ValueError):
        apply_permutation((1, 0), (0, 2))  # letter outside the domain


def test_reverse_permutation():
    assert reverse_permutation(2) == (1, 0)
    assert reverse_permutation(3) == (2, 1, 0)
    w = (0, 0, 1, 1, 1)
    assert apply_permutation(reverse_permutation(2), w) == (1, 1, 0, 0, 0)


def test_alphabet_requires_a_letter():
    with pytest.raises(ValueError, match="an alphabet with k=0 letters needs k >= 1"):
        Alphabet(0)


def test_alphabet_letters_and_validate():
    assert list(A3.letters()) == [0, 1, 2]
    A3.validate((0, 2, 1))
    with pytest.raises(ValueError):
        A3.validate((0, 3))


def test_words_of_length_is_lexicographic_and_complete():
    words = list(words_of_length(A2, 3))
    assert len(words) == 8
    assert words == sorted(words)
    assert words[0] == (0, 0, 0) and words[-1] == (1, 1, 1)


def test_words_upto_orders_by_length_then_lex():
    words = list(words_upto(A2, 3))
    assert len(words) == 2 + 4 + 8
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_parse_format_round_trip():
    # one digit per letter up to 10 letters, a comma list past them; the
    # empty word is the empty string either way
    for k in range(1, 13):
        alphabet, sep = Alphabet(k), "" if k <= 10 else ","
        for w in itertools.chain([()], words_upto(alphabet, 4 if k <= 10 else 3)):
            assert alphabet.format(w) == sep.join(map(str, w))
            assert alphabet.parse(alphabet.format(w)) == w


def test_large_alphabets_use_comma_lists():
    big = Alphabet(12)
    assert big.format((2, 10, 0)) == "2,10,0"
    assert big.parse("2,10,0") == (2, 10, 0)
    assert big.parse("10") == (10,)


def test_comma_lists_read_only_ascii_decimals():
    # int() alone would read "1_0", " 2", "+3" and "\u0661\u0660" (10 in
    # Arabic-Indic digits); an empty token is no letter either
    big = Alphabet(11)
    for text in ("1_0, 2,+3", "\u0661\u0660,2", " 1,0", "1,,0", "2,"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            big.parse(text)


def test_parse_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        A2.parse("102")


def test_parse_empty_gives_empty_word():
    assert A2.parse("") == ()


def test_format_factorization_joins_with_bars():
    assert format_factorization(A2, ((1, 0), (1, 0, 0))) == "10|100"
    assert format_factorization(A2, ((1, 0, 1),)) == "101"
