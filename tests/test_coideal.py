from math import comb

import pytest

from tbtl import coideal

from tbtl.basis import build_diagram, enumerate_strings
from tbtl.coideal import (
    apply_X_kl,
    check_bi_multiplicity_histogram,
    check_multiplicity_theorem,
    check_triangular_spectrum,
    classify_bi,
    eigen_multiplicities,
)
from tbtl.kl_action import crosscheck_vs_standard
from tbtl.ring import RatioElem, RingElem, ZeroDenominator, qQ_bracket, qint, R_ONE

mono = RingElem.mono


def r(c):
    return RatioElem.from_ring(c)


class TestWorkedExamples:
    def test_type_A(self):
        # three ups, three downs, weight zero: coefficients [i] and q[i]
        b = "+++---"
        D = build_diagram("A", b)
        out = apply_X_kl("A", D)
        assert out["++----"] == r(qint(3))       # last up flipped: E_(3)
        assert out["-++---"] == r(qint(1))        # E_(1)
        assert out["+-+---"] == r(qint(2))
        assert out["+++--+"] == r(mono(1, 1) * qint(1))  # F_(1): rightmost down
        assert out["+++-+-"] == r(mono(1, 1) * qint(2))
        assert out["++++--"] == r(mono(1, 1) * qint(3))
        assert out[b] == qQ_bracket(0)

    def test_BI_with_unpaired(self):
        # example with one up and an unpaired down (M = 2)
        b = "+-" + "-+--+--"[:0] + "-+--"[:0]
        b = "+--+--"  # up, unpaired down would need the right shape; build one
        D = build_diagram("BI", "+-", 2)
        assert D.label_map() == {2: 2}
        out = apply_X_kl("BI", D)
        # no unpaired down: r = 2: diagonal [n_up + r - 1] = [2]
        assert out["--"] == r(qint(1))
        assert out["+-"] == r(qint(2))

    def test_BI_second_example(self):
        # M = 3, labels 2 and 3 present, two ups: X = X1 + [2]X2 + [3]D
        b = "+-+--" + "-"
        D = build_diagram("BI", "++--", 3)
        assert D.label_map() == {3: 2, 4: 3}
        out = apply_X_kl("BI", D)
        assert out["-+--"] == r(qint(1))
        assert out["+---"] == r(qint(2))
        assert out["++--"] == r(qint(3))  # [n_up + r - 1] = [2 + 2 - 1]

    def test_BI_unpaired_down(self):
        D = build_diagram("BI", "+-", 1)
        assert D.star == 2 and D.unpaired_down is None
        # a genuine unpaired down needs more downs than M
        D = build_diagram("BI", "+--", 1)
        assert D.unpaired_down == 2 and D.star == 3
        out = apply_X_kl("BI", D)
        assert out["---"] == r(qint(1))   # dashed-arc move
        assert out["++-"] == r(qint(2))   # unpaired down flipped
        assert "+--" not in out

    def test_BII(self):
        # the worked example: two ups, nested arcs, marks e and o
        b = "++---++-"
        D = build_diagram("BII", b)
        assert D.arcs == ((4, 7), (5, 6))
        assert D.mark_map() == {3: "e", 8: "o"}
        out = apply_X_kl("BII", D)
        assert out["-+---++-"] == r(qint(1))
        assert out["+----++-"] == r(qint(2))
        assert out[b] == qQ_bracket(2)

    def test_BII_o_leftmost(self):
        D = build_diagram("BII", "+-")
        out = apply_X_kl("BII", D)
        assert out["+-"] == qQ_bracket(-2)  # [Q; -n_up - 1]

    def test_BIII(self):
        b = "+-++--" + "-++-"
        D = build_diagram("BIII", "+-+-")
        out = apply_X_kl("BIII", D)
        assert out[("+-+-")] == qQ_bracket(0)


class TestXmatrix:
    @pytest.mark.parametrize(
        "tag,M", [("A", None), ("BI", 1), ("BI", 2), ("BII", None), ("BIII", None)]
    )
    def test_oracle(self, tag, M):
        for N in (1, 2, 3, 4):
            assert crosscheck_vs_standard(tag, N, "X", M)[0], (tag, N)

    def test_triangular(self):
        for tag in ("BII", "BIII"):
            for N in (2, 4, 6):
                assert check_triangular_spectrum(tag, N)


class TestClassification:
    def test_all_plus(self):
        hist = classify_bi(3, 2)
        # all-plus: no labels, r = M + 1, E = N + M
        assert hist[3 + 2] == 1

    def test_unpaired_value(self):
        # diagram with unpaired down and k ups has index -(k+1)
        D = build_diagram("BI", "+--", 1)
        assert D.unpaired_down is not None
        hist = classify_bi(3, 1)
        assert hist.get(-2, 0) >= 1

    def test_totals(self):
        for N in (3, 5):
            for M in (1, 2):
                assert sum(classify_bi(N, M).values()) == 2**N

    def test_binomial_histogram(self):
        for N in range(1, 9):
            for M in (1, 2, 3):
                assert check_bi_multiplicity_histogram(N, M), (N, M)


class TestMultiplicities:
    def test_small(self):
        mult, _ = eigen_multiplicities("A", 3, seed=3)
        assert mult == {0: 1, 1: 3, 2: 3, 3: 1}

    def test_n1(self):
        for tag, M in [("A", None), ("BI", 2), ("BII", None), ("BIII", None)]:
            mult, _ = eigen_multiplicities(tag, 1, M, seed=5)
            assert mult == {0: 1, 1: 1}

    @pytest.mark.parametrize(
        "tag,M", [("A", None), ("BI", 1), ("BI", 3), ("BII", None), ("BIII", None)]
    )
    def test_theorem_two_points(self, tag, M):
        for N in (2, 4):
            assert check_multiplicity_theorem(tag, N, M, seeds=(7, 2026))

    def test_bi_matches_histogram(self):
        N, M = 3, 2
        mult, _ = eigen_multiplicities("BI", N, M, seed=11)
        hist = classify_bi(N, M)
        for i in range(N + 1):
            assert hist.get(N + M - 2 * i, 0) == mult[i] or comb(N, i) == mult[i]

    @pytest.mark.parametrize("error", [TypeError, ZeroDenominator])
    def test_only_degenerate_points_resample(self, monkeypatch, error):
        class Candidate:
            def evaluate(self, p):
                raise error("candidate cannot be evaluated")

        monkeypatch.setattr(
            coideal, "candidate_eigenvalues", lambda tag, N, M: [(0, Candidate())]
        )
        expected = TypeError if error is TypeError else RuntimeError
        with pytest.raises(expected):
            eigen_multiplicities("A", 2, seed=1)
