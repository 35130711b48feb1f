"""Word primitives: rotations, primitivity, permutations, text."""

import itertools
import random

import pytest

from nyldon import (
    Alphabet,
    apply_permutation,
    format_factorization,
    is_primitive,
    reverse_permutation,
    rotations,
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


def test_primitivity_matches_power_definition():
    for w in itertools.chain(A2.words_upto(10), A3.words_upto(7)):
        n = len(w)
        is_power = any(
            n % d == 0 and w == w[:d] * (n // d) for d in range(1, n)
        )
        assert is_primitive(w) == (not is_power)


def test_primitive_iff_unique_among_rotations():
    for w in A2.words_upto(8):
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
    with pytest.raises(ValueError):
        Alphabet(0)


def test_alphabet_letters_and_validate():
    assert list(A3.letters()) == [0, 1, 2]
    A3.validate((0, 2, 1))
    with pytest.raises(ValueError):
        A3.validate((0, 3))


def test_words_of_length_is_lexicographic_and_complete():
    words = list(A2.words_of_length(3))
    assert len(words) == 8
    assert words == sorted(words)
    assert words[0] == (0, 0, 0) and words[-1] == (1, 1, 1)


def test_words_upto_orders_by_length_then_lex():
    words = list(A2.words_upto(3))
    assert len(words) == 2 + 4 + 8
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_parse_format_round_trip():
    for w in A3.words_upto(4):
        assert A3.parse(A3.format(w)) == w


def test_large_alphabets_use_comma_lists():
    big = Alphabet(12)
    assert big.format((2, 10, 0)) == "2,10,0"
    assert big.parse("2,10,0") == (2, 10, 0)


def test_parse_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        A2.parse("102")


def test_parse_empty_gives_empty_word():
    assert A2.parse("") == ()


def test_format_factorization_joins_with_bars():
    assert format_factorization(A2, ((1, 0), (1, 0, 0))) == "10|100"
    assert format_factorization(A2, ((1, 0, 1),)) == "101"
