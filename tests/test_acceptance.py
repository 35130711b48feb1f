"""Acceptance gate: eleven end-to-end checks, one test each.

Every test asserts its correctness conditions (and, where one is
stated, its wall-clock budget) before printing a single summary line;
run with -rP or -s to see the lines, or rely on the per-test
PASSED/FAILED verdicts.
"""

import time

from nyldon import (
    Alphabet,
    apply_permutation,
    count_by_length,
    exhaustive_factorizations,
    forbidden_prefix_family,
    in_code_star,
    is_comma_free_uniform,
    is_forbidden_prefix_upto,
    is_nyldon,
    is_primitive,
    lazard_run,
    lazard_stepcount_nyldon,
    melancon_nyldon_conjugate,
    necklace_count,
    nyldon_code,
    nyldon_comma_free_classification,
    nyldon_comma_free_table,
    nyldon_factorize,
    recursive_is_nyldon,
    reverse_permutation,
    rotations,
    standard_factorization,
)
from nyldon.cli import main

from golden import (
    BINARY_COUNTS_1_14,
    COMMA_FREE_WITNESS_K3_N3,
    COMMA_FREE_WITNESS_K4_N2,
    ELIM_LEFT_MAX,
    ELIM_LEFT_MIN,
    ELIM_RIGHT_MAX,
    ELIM_RIGHT_MAX_REVERSED,
    ELIM_RIGHT_MIN,
    LYNDON_UPTO_7,
    NYLDON_23,
    NYLDON_UPTO_7,
    POWER_BASE_WORD,
    power_factorization,
    w,
    ws,
)

A2 = Alphabet(2)


def report(num, elapsed, text):
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s): {text}")


def test_01_enumeration_up_to_length_7_is_byte_exact(capsys):
    t0 = time.perf_counter()
    assert main(["enumerate", "-k", "2", "--max-len", "7"]) == 0
    nyldon_out = capsys.readouterr().out
    assert main(["enumerate", "-k", "2", "--max-len", "7", "--family", "lyndon"]) == 0
    lyndon_out = capsys.readouterr().out
    assert len(NYLDON_UPTO_7) == len(LYNDON_UPTO_7) == 41
    assert nyldon_out == " ".join(A2.format(v) for v in NYLDON_UPTO_7) + "\n"
    assert lyndon_out == " ".join(A2.format(v) for v in LYNDON_UPTO_7) + "\n"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed, "both 41-word enumerations match the frozen lists byte for byte")


def test_02_per_length_counts_to_14():
    t0 = time.perf_counter()
    expected = list(BINARY_COUNTS_1_14)
    assert count_by_length("nyldon", A2, 14) == expected
    assert count_by_length("lyndon", A2, 14) == expected
    assert [necklace_count(2, n) for n in range(1, 15)] == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, elapsed, "Nyldon = Lyndon = formula counts for lengths 1..14")


def test_03_factorization_is_unique_up_to_length_10():
    t0 = time.perf_counter()
    checked = 0
    for v in A2.words_upto(10):
        found = exhaustive_factorizations(v, "nyldon")
        assert found == [nyldon_factorize(v)]
        checked += 1
    assert checked == 2046
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(3, elapsed, f"exhaustive search found exactly one factorization for {checked} words")


def test_04_recursive_definition_agreement(binary_nyldon_upto_12):
    t0 = time.perf_counter()
    for v, member in binary_nyldon_upto_12.items():
        assert recursive_is_nyldon(v) == member
    a3 = Alphabet(3)
    ternary = 0
    for v in a3.words_upto(8):
        assert recursive_is_nyldon(v) == is_nyldon(v)
        ternary += 1
    assert ternary == 9840
    elapsed = time.perf_counter() - t0
    report(4, elapsed, "recursive and algorithmic membership agree, binary <=12 and ternary <=8")


def test_05_nyldon_suffixes_are_smaller(binary_nyldon_upto_12):
    t0 = time.perf_counter()
    for v, member in binary_nyldon_upto_12.items():
        if member:
            for i in range(1, len(v)):
                if binary_nyldon_upto_12[v[i:]]:
                    assert v[i:] < v
    # the converse is false and must stay false
    bad = w("1011011")
    assert not is_nyldon(bad)
    assert all(
        bad[i:] < bad for i in range(1, len(bad)) if is_nyldon(bad[i:])
    )
    elapsed = time.perf_counter() - t0
    report(5, elapsed, "suffix law holds on all members <=12; converse witness still fails")


def test_06_unique_nyldon_rotation_and_fast_conjugate(binary_nyldon_upto_12):
    t0 = time.perf_counter()
    classes = 0
    for v in A2.words_upto(12):
        if not is_primitive(v):
            continue
        rots = rotations(v)
        assert sum(binary_nyldon_upto_12[r] for r in rots) == 1
        expected = next(r for r in rots if binary_nyldon_upto_12[r])
        assert melancon_nyldon_conjugate(v) == expected
        classes += 1
    assert melancon_nyldon_conjugate(POWER_BASE_WORD) == NYLDON_23
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(6, elapsed, f"one Nyldon rotation per primitive word ({classes} inputs), merging path agrees")


def test_07_power_factorizations():
    t0 = time.perf_counter()
    for e in range(1, 6):
        assert nyldon_factorize(POWER_BASE_WORD * e) == power_factorization(e)
    elapsed = time.perf_counter() - t0
    report(7, elapsed, "powers 1..5 of the 23-letter word factor along the frozen pattern")


def test_08_elimination_traces_step_for_step():
    t0 = time.perf_counter()
    identity, reverse = (0, 1), reverse_permutation(2)
    runs = [
        ("left", "min", identity, ELIM_LEFT_MIN),
        ("right", "max", identity, ELIM_RIGHT_MAX),
        ("right", "min", identity, ELIM_RIGHT_MIN),
        ("left", "max", identity, ELIM_LEFT_MAX),
        # the run under the reversed order is the plain run relabeled
        ("right", "max", reverse, ELIM_RIGHT_MAX_REVERSED),
    ]
    for side, sel, perm, golden in runs:
        trace = lazard_run(side, sel, A2, 5)
        assert tuple(apply_permutation(perm, v) for v in trace.eliminated) == golden["eliminated"]
        assert [{apply_permutation(perm, v) for v in s.snapshot} for s in trace.steps] == [
            set(ws(s)) for s in golden["snapshots"]
        ]
    assert lazard_stepcount_nyldon(A2, 5) == (4, 14)
    elapsed = time.perf_counter() - t0
    report(8, elapsed, "all five pinned elimination traces reproduced; Nyldon cover at step 4")


def test_09_comma_free_matrix_with_witnesses():
    t0 = time.perf_counter()
    table = nyldon_comma_free_table(4, 7)
    assert len(table) == 21
    for (k, n), holds in table.items():
        assert holds == nyldon_comma_free_classification(k, n)
        if not holds:
            c = nyldon_code(Alphabet(k), n)
            u, x, v = is_comma_free_uniform(c, n).witness
            assert x in c and u and v and len(u) + len(v) == n
            assert in_code_star(c, n, u + x + v)
    for k, n, triple in ((4, 2, COMMA_FREE_WITNESS_K4_N2), (3, 3, COMMA_FREE_WITNESS_K3_N3)):
        c = nyldon_code(Alphabet(k), n)
        assert is_comma_free_uniform(c, n).witness == triple
        u, x, v = triple
        assert x in c and in_code_star(c, n, u + x + v)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(9, elapsed, "21-cell verdict matrix matches; every failure witness re-validated")


def test_10_standard_factorization_up_to_length_12(binary_nyldon_upto_12):
    t0 = time.perf_counter()
    members = 0
    for v, member in binary_nyldon_upto_12.items():
        if member and len(v) >= 2:
            p, s = standard_factorization(v)
            assert p + s == v
            assert binary_nyldon_upto_12[p] and binary_nyldon_upto_12[s]
            assert p > s
            members += 1
    elapsed = time.perf_counter() - t0
    report(10, elapsed, f"two-part split is Nyldon/Nyldon and descending on all {members} members")


def test_11_forbidden_prefixes():
    t0 = time.perf_counter()
    assert is_forbidden_prefix_upto(w("1010"), 14, A2)
    instances = 0
    for family in (1, 2, 3, 4):
        for k_param in (0, 1, 2):
            p = forbidden_prefix_family(k_param, family)
            assert is_forbidden_prefix_upto(p, len(p) + 4, A2)
            instances += 1
    elapsed = time.perf_counter() - t0
    report(11, elapsed, f"1010 forbidden to length 14; all {instances} family instances forbidden")
