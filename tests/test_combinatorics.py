import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from tbtl import combinatorics
from tbtl.combinatorics import (
    TABLE_1,
    bii_S_N1_closed,
    biii_component_histogram,
    block_strings,
    check_bii_P_conjecture,
    check_biii_component_conjecture,
    check_P_conjecture,
    check_sum_conjectures,
    check_table1,
    check_typeA_component_conjecture,
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
    pattern_avoiding_bisym_signed,
    signed_bisym_matrices,
    sum_rule,
    sym_binary_weight_histogram,
)
from tbtl.ring import RingElem, SpecPoint

mono = RingElem.mono


def random_observable(N: int, rng: random.Random):
    """A random observable on N sites: each site, in random order and up to
    a random count, goes to alphas, plus or minus with equal chance."""
    sites = list(range(1, N + 1))
    rng.shuffle(sites)
    k = rng.randint(0, N)
    chosen = sites[:k]
    alphas, plus, minus = [], [], []
    for s in chosen:
        r = rng.random()
        if r < 1 / 3:
            alphas.append(s)
        elif r < 2 / 3:
            plus.append(s)
        else:
            minus.append(s)
    return alphas, plus, minus


def biii_wt_histogram(N: int) -> dict[int, int]:
    """Histogram of the signed weight wt(c) over the C-family."""
    hist: dict[int, int] = {}
    for sigma in pattern_avoiding_bisym_signed(N + 1):
        m = 2 * N
        npos = nneg = 0
        for i0 in range(m):
            j0, sg = sigma[i0]
            i, j = i0 + 1, j0 + 1
            if sg != 1 or not (1 <= i <= N):
                continue
            if i <= j <= N:
                npos += 1
            elif N + 1 <= j <= 2 * N + 1 - i:
                nneg += 1
        w = npos - nneg
        hist[w] = hist.get(w, 0) + 1
    return hist


def biii_Q_coefficients(N: int) -> dict[int, int]:
    """Coefficients of Q^e in the BIII sum at q = 1, expanded from the
    (Q + 1/Q)^i coefficients."""
    out: dict[int, int] = {}
    for i, c in decompose_sum("BIII", N).items():
        for k in range(i + 1):
            out[i - 2 * k] = out.get(i - 2 * k, 0) + c * comb(i, k)
    return {e: c for e, c in out.items() if c}


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

    @pytest.mark.parametrize("name,n", [("A005425", -1), ("A000902", 0), ("A083886", 0)])
    def test_below_first_index(self, name, n):
        with pytest.raises(ValueError):
            oeis_sequence(name, n)


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

    def test_table_evaluates_each_atom_once(self, monkeypatch):
        # every cell is summed at one point, whose atom table is shared
        points, evaluated = [], []
        real_sum_rule, real_evaluate = combinatorics.sum_rule, RingElem.evaluate

        def sum_rule(tag, N, M=None, p=None):
            points.append(p)
            return real_sum_rule(tag, N, M, p)

        def evaluate(self, p):
            evaluated.append(self)
            return real_evaluate(self, p)

        monkeypatch.setattr(combinatorics, "sum_rule", sum_rule)
        monkeypatch.setattr(RingElem, "evaluate", evaluate)
        assert [sums for _, _, sums in combinatorics.table_sums(6)] == [
            row[:6] for row in TABLE_1.values()
        ]
        assert len(points) == 42 and points[0] is not None
        assert all(p is points[0] for p in points)
        assert evaluated and len(evaluated) == len(set(evaluated))


class TestEnumerations:
    def test_sym_binary_small(self):
        assert len(enumerate_sym_binary(1)) == 2
        assert len(enumerate_sym_binary(2)) == 5
        assert len(enumerate_sym_binary(4)) == 43

    def test_counts_match_sequence(self):
        for n in range(1, 9):
            assert len(enumerate_sym_binary(n)) == oeis_sequence("A005425", n)

    @pytest.mark.parametrize("n", range(6))
    def test_sym_binary_brute_force(self, n):
        # every 0/1 filling of the cells on and above the diagonal, mirrored
        # below it, kept if no row holds two ones; listed once each
        upper = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        want = set()
        for bits in itertools.product((0, 1), repeat=len(upper)):
            links = tuple(cell for cell, bit in zip(upper, bits) if bit)
            ones = {cell for i, j in links for cell in ((i, j), (j, i))}
            if all(sum((r, c) in ones for c in range(1, n + 1)) <= 1 for r in range(1, n + 1)):
                want.add(links)
        got = enumerate_sym_binary(n)
        assert len(got) == len(set(got)) and set(got) == want

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

    def test_bisym_counts_brute_force(self):
        # every permutation of 2n, kept if its matrix is symmetric about both
        # diagonals, counted up to a quarter turn (i, j) -> (j, 2n-1-i)
        for n in range(1, 5):
            m = 2 * n
            orbits = set()
            for perm in itertools.permutations(range(m)):
                cells = frozenset(enumerate(perm))
                if cells != {(j, i) for i, j in cells}:
                    continue
                if cells != {(m - 1 - j, m - 1 - i) for i, j in cells}:
                    continue
                turns = [cells]
                for _ in range(3):
                    turns.append(frozenset((j, m - 1 - i) for i, j in turns[-1]))
                orbits.add(min(tuple(sorted(t)) for t in turns))
            assert enumerate_bisym_perm(n) == len(orbits), n

    @pytest.mark.parametrize("m", range(7))
    def test_signed_bisym_brute_force(self, m):
        # every permutation of m with every choice of signs, kept if the
        # matrix is symmetric about both diagonals; yielded once each
        want = set()
        for perm in itertools.permutations(range(m)):
            for signs in itertools.product((1, -1), repeat=m):
                entry = dict(enumerate(zip(perm, signs)))  # row -> (column, sign)
                if all(
                    entry[j] == (i, s) and entry[m - 1 - j] == (m - 1 - i, s)
                    for i, (j, s) in entry.items()
                ):
                    want.add(tuple(sorted(entry.items())))
        got = [tuple(sorted(sigma.items())) for sigma in signed_bisym_matrices(m)]
        assert len(got) == len(set(got)) and set(got) == want

    def test_pattern_avoiding_counts(self):
        for n in range(1, 6):
            assert count_pattern_avoiding(n) == oeis_sequence("A083886", n)

    def test_pattern_avoiding_family_is_a_tuple(self):
        # the list is lru-cached and shared, so callers get an immutable one
        assert isinstance(pattern_avoiding_bisym_signed(3), tuple)

    def test_pattern_avoiding_matrices_are_read_only(self):
        # each cached matrix is shared too: changing one must raise and
        # leave the next call's matrices as they were
        before = [dict(s) for s in pattern_avoiding_bisym_signed(3)]
        first = pattern_avoiding_bisym_signed(3)[0]
        with pytest.raises(AttributeError):
            first.clear()
        with pytest.raises(TypeError):
            first[0] = (0, 1)
        assert [dict(s) for s in pattern_avoiding_bisym_signed(3)] == before
        assert before[0]


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
                assert check_P_conjecture("A", i, N)

    def test_biii_P(self):
        for N in range(1, 11):
            for i in range(1, min(4, N) + 1):
                assert check_P_conjecture("BIII", i, N)

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
        for N in (1, 2, 3):
            assert biii_wt_histogram(N) == biii_Q_coefficients(N)
