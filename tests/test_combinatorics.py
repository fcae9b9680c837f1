import random
from fractions import Fraction

from tbtl.combinatorics import (
    TABLE_1,
    bii_P_polynomial,
    bii_S_N1_closed,
    biii_component_histogram,
    block_strings,
    check_bii_P_conjecture,
    check_biii_P_conjecture,
    check_biii_component_conjecture,
    check_sum_conjectures,
    check_table1,
    check_typeA_P_conjecture,
    check_typeA_component_conjecture,
    check_weight_histogram,
    correlation_brute,
    correlation_check,
    correlation_closed,
    count_pattern_avoiding,
    decompose_sum,
    enumerate_bisym_perm,
    enumerate_sym_binary,
    F_of_links,
    is_admissible,
    links_string,
    oeis_sequence,
    random_observable,
    sum_rule,
    sym_binary_weight_histogram,
    typeA_P_polynomial,
)
from tbtl.ring import RingElem, SpecPoint

mono = RingElem.mono


class TestOEIS:
    def test_A005425(self):
        assert [oeis_sequence("A005425", n) for n in range(8)] == [
            1, 2, 5, 14, 43, 142, 499, 1850]

    def test_A000902(self):
        assert [oeis_sequence("A000902", n) for n in range(1, 7)] == [
            1, 3, 10, 38, 156, 692]

    def test_A083886(self):
        assert [oeis_sequence("A083886", n) for n in range(1, 8)] == [
            1, 3, 11, 45, 201, 963, 4899]


class TestSumRules:
    def test_table_spot_values(self):
        assert sum_rule("A", 4) == 43
        assert sum_rule("BI", 4, 1) == 156
        assert sum_rule("BII", 4) == 129
        assert sum_rule("BIII", 4) == 201
        assert sum_rule("BI", 5, 3) == 952

    def test_full_table(self):
        rep = check_table1(7)
        assert all(v[0] for v in rep.values())

    def test_biii_equals_bi_inf(self):
        for N in range(1, 8):
            assert sum_rule("BIII", N) == sum_rule("BI", N, N + 1)

    def test_oeis_identifications(self):
        rep = check_sum_conjectures(7)
        assert all(rep.values())

    def test_at_other_point(self):
        p = SpecPoint(2, 3, 1)
        total = sum_rule("A", 3, None, p)
        assert total > 0


class TestEnumerations:
    def test_sym_binary_small(self):
        assert len(enumerate_sym_binary(1)) == 2
        assert len(enumerate_sym_binary(2)) == 5
        assert len(enumerate_sym_binary(4)) == 43

    def test_counts_match_sequence(self):
        for n in range(1, 9):
            assert len(enumerate_sym_binary(n)) == oeis_sequence("A005425", n)

    def test_weight_histograms(self):
        for n in range(1, 9):
            hist = sym_binary_weight_histogram(n)
            assert hist == decompose_sum("A", n), n
            assert all(hist[i] == hist[n - i] for i in hist)

    def test_bisym_counts(self):
        assert enumerate_bisym_perm(1) == 1
        assert enumerate_bisym_perm(2) == 3
        assert enumerate_bisym_perm(3) == 10
        assert enumerate_bisym_perm(4) == 38

    def test_pattern_avoiding_counts(self):
        for n in range(1, 6):
            assert count_pattern_avoiding(n) == oeis_sequence("A083886", n)


class TestCorrelations:
    def test_single_site(self):
        c = correlation_closed(4, [4], [], [])
        assert c.evaluate(SpecPoint(5, 2, 1)) == Fraction(4, 5)

    def test_empty(self):
        from tbtl.ring import R_ONE

        assert correlation_closed(3, [], [], []) == R_ONE

    def test_random_agreement(self):
        rng = random.Random(42)
        for N in (2, 3, 4, 5):
            for _ in range(12):
                a, p, m = random_observable(N, rng)
                assert correlation_check(N, a, p, m), (N, a, p, m)


class TestDecompositions:
    def test_sum_consistency(self):
        # at Q = 1, Q^i is 1 and (Q + 1/Q)^i is 2^i
        for N in (3, 4, 5):
            assert sum(decompose_sum("A", N).values()) == TABLE_1["A"][N - 1]
            for tag in ("BII", "BIII"):
                d = decompose_sum(tag, N)
                assert sum(c * 2**i for i, c in d.items()) == TABLE_1[tag][N - 1], (tag, N)

    def test_bii_decomposition_matches_sum_at_Q(self):
        # N + 1 values of Q pin the degree-N polynomial in (Q + 1/Q)
        N = 5
        d = decompose_sum("BII", N)
        for Q in range(2, N + 3):
            x = Q + Fraction(1, Q)
            direct = sum_rule("BII", N, None, SpecPoint(1, Q, 1))
            assert direct == sum(c * x**i for i, c in d.items()), Q

    def test_typeA_P(self):
        for N in range(1, 11):
            for i in range(1, min(4, N) + 1):
                assert check_typeA_P_conjecture(i, N)

    def test_biii_P(self):
        for N in range(1, 11):
            for i in range(1, min(4, N) + 1):
                assert check_biii_P_conjecture(i, N)

    def test_bii_S_N1(self):
        for N in range(1, 21):
            got = decompose_sum("BII", N, degrees=[1])[1]
            assert Fraction(got) == bii_S_N1_closed(N)

    def test_bii_P_shifted(self):
        for N in range(2, 13):
            for i in range(1, min(3, N) + 1):
                assert check_bii_P_conjecture(i, N)


class TestComponentConjectures:
    def test_worked_links(self):
        links = ((1, 3), (2, 2), (4, 5))
        assert is_admissible(links)
        assert links_string(links, 5) == "+--+-"
        assert F_of_links(links, 5) == mono(1, -1, 2)

    def test_crossing_rejected(self):
        assert not is_admissible(((1, 3), (2, 4)))

    def test_all_plus(self):
        ok, psi, total = check_typeA_component_conjecture(4, "++++")
        assert ok and psi == mono(1, 6, 4)

    def test_block_strings_sweep(self):
        for N in (2, 3, 4, 5):
            for b in block_strings(N):
                ok, _, _ = check_typeA_component_conjecture(N, b)
                assert ok, (N, b)

    def test_biii_paths(self):
        for N in (1, 2, 3, 4):
            hist = biii_component_histogram(N)
            assert sum(hist.values()) == count_pattern_avoiding(N + 1)
            res = check_biii_component_conjecture(N)
            assert all(v[2] for v in res.values()), (N, res)

    def test_biii_wt_histogram(self):
        from tbtl.combinatorics import biii_Q_coefficients, biii_wt_histogram

        for N in (1, 2, 3):
            assert biii_wt_histogram(N) == biii_Q_coefficients(N)
