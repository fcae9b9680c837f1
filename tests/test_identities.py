from itertools import product

import pytest

from tbtl.identities import (
    LEMMA_IDS,
    lemma_app0,
    lemma_app2,
    lemma_app13,
    sweep,
    tridiag_v_closed,
    tridiag_v_sequence,
    verify_qidentity,
    verify_tridiagonal_lemma,
)
from tbtl.basis import specialize
from tbtl.ring import RatioElem, qint, qQ_bracket


def bi_eigenvalue_consistency(N: int, M: int) -> bool:
    """x_lambda at Q = q^M equals the one-parameter eigenvalue [M+N-2lam]."""
    xs = specialize({lam: qQ_bracket(N - 2 * lam) for lam in range(N + 1)}, "BI", M)
    return all(x == RatioElem.from_ring(qint(M + N - 2 * lam)) for lam, x in xs.items())


class TestSpotInstances:
    def test_app2_single(self):
        # one-term case: both sides are [m]/([x][x+m])
        lhs, rhs = lemma_app2([3], 2)
        assert lhs == rhs

    def test_app0_worked(self):
        lhs, rhs = lemma_app0([2, 3], [1, 0, 2])
        assert lhs == rhs
        from tbtl.ring import qint, RatioElem

        assert rhs == RatioElem.from_ring(qint(5))

    def test_app13_small(self):
        lhs, rhs = lemma_app13([1], 1, 0)
        assert lhs == rhs


class TestSmallGrids:
    @pytest.mark.parametrize("lemma", [l for l in LEMMA_IDS if l not in ("appA", "app2", "app13")])
    def test_exhaustive(self, lemma):
        needs_positive_n = lemma in ("app8", "app15", "app17")
        lo = 1 if needs_positive_n else 0
        for I in (1, 2):
            for ms in product((1, 2), repeat=I):
                ns_len = I + 1 if lemma in ("app0", "app1") else I
                for ns in product(range(lo, 3), repeat=ns_len):
                    params = {"ms": list(ms), "ns": list(ns)}
                    assert verify_qidentity(lemma, params), (lemma, params)

    def test_app2_grid(self):
        for I in (1, 2, 3):
            for ms in product((1, 2), repeat=I):
                for x in (1, 2, 3):
                    assert verify_qidentity("app2", {"ms": list(ms), "x": x})

    def test_app13_grid(self):
        for K in (1, 2):
            for ms in product((1, 2), repeat=K):
                for x in (1, 2):
                    for z in (0, 1):
                        assert verify_qidentity(
                            "app13", {"ms": list(ms), "x": x, "z": z}
                        )


class TestSweeps:
    @pytest.mark.parametrize("lemma", [l for l in LEMMA_IDS if l != "appA"])
    def test_random_draws(self, lemma):
        assert sweep(lemma, draws=60, seed=23)


class TestTridiagonal:
    def test_determinant_vanishes(self):
        for N in (1, 2, 3):
            assert verify_tridiagonal_lemma(N)

    def test_recursion_matches_closed_form(self):
        for N in (2, 3):
            for lam in range(N + 1):
                v = tridiag_v_sequence(N, lam)
                for n in range(1, N + 2):
                    assert v[n] == tridiag_v_closed(N, lam, n)

    def test_bi_consistency(self):
        for N in (2, 3, 4):
            for M in (1, 2, 3):
                assert bi_eigenvalue_consistency(N, M)
