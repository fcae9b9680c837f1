from fractions import Fraction

import pytest

from tbtl.basis import build_diagram, enumerate_strings
from tbtl.ground_state import (
    GroundState,
    NonPolynomialComponent,
    e0_requires_condition,
    numeric_ground_state_check,
    oracle_change_of_basis,
    psi_component,
    psi_vector,
    structural_checks,
    verify_annihilation,
    verify_x_eigen,
)
from tbtl.coideal import candidate_eigenvalues
from tbtl.ring import (
    RatioElem,
    RingElem,
    SpecPoint,
    angle,
    qint,
    qshift,
    R_ONE,
)

mono = RingElem.mono

FAMILIES = [("A", None), ("BI", 1), ("BI", 2), ("BII", None), ("BIII", None)]
ALL = FAMILIES + [("standard", None)]


class TestWorkedExamples:
    def test_type_A(self):
        f = psi_component("A", build_diagram("A", "++--+++--+-"))
        assert (f.q_exp, f.Q_exp) == (15, 6)
        num = mono(1, 15, 6)
        for n in (3, 4, 6, 7, 8):
            num = num * qint(n)
        assert f.to_ratio() == RatioElem(num, (("raw", qint(2)), ("raw", qint(3))))

    def test_standard(self):
        assert psi_component("standard", build_diagram("A", "++-+")).to_ratio() == \
            RatioElem.from_ring(mono(1, 5, 3))
        assert psi_component("standard", build_diagram("A", "--++")).to_ratio() == \
            RatioElem.from_ring(mono(1, 1, 2))
        assert psi_component("standard", build_diagram("A", "--+-")).to_ratio() == \
            RatioElem.from_ring(mono(1, 1, 1))

    def test_BII(self):
        f = psi_component("BII", build_diagram("BII", "++-+---++-"))
        num = RingElem.const(1)
        for n in (3, 4, 5, 6):
            num = num * qint(n)
        for i in range(2, 7):
            num = num * qshift(i - 1)
        assert f.to_ratio() == RatioElem(num, (("raw", qint(2)), ("raw", qint(3))))

    def test_BIII(self):
        f = psi_component("BIII", build_diagram("BIII", "++---++--+-"))
        num = RingElem.const(1)
        for n in (3, 4, 5, 6, 7, 8):
            num = num * qint(n)
        for i in range(1, 6):
            num = num * qshift(i - 1)
        assert f.to_ratio() == RatioElem(
            num, (("raw", qint(2)), ("raw", qint(3)), ("raw", qint(6)))
        )

    def test_BI_twelve_factors(self):
        f = psi_component("BI", build_diagram("BI", "++--+--+--+---++-+", 2))
        num = qint(20) * qint(3) * qint(13)
        for n in range(3, 11):
            num = num * qint(n)
        for i in (1, 2, 3, 4, 6, 7, 9):
            num = num * angle(i + 1)
        dens = tuple(("raw", qint(n)) for n in (2, 3, 4, 6, 9, 14))
        assert f.to_ratio() == RatioElem(num, dens)


class TestVectorShape:
    def test_all_minus_type_A(self):
        f = psi_component("A", build_diagram("A", "----"))
        assert f.to_ratio() == R_ONE

    def test_all_plus_standard(self):
        for N in (3, 5):
            f = psi_component("standard", build_diagram("A", "+" * N))
            assert f.to_ratio() == RatioElem.from_ring(mono(1, N * (N - 1) // 2, N))

    def test_components_nonzero(self):
        for tag, M in ALL:
            gs = psi_vector(tag, 5, M)
            assert len(gs.factors) == 32
            p = SpecPoint(Fraction(7, 5), Fraction(3, 2), 1)
            assert all(v != 0 for v in gs.evaluate(p).values())

    def test_polynomial_certificates(self):
        for tag, M in ALL:
            gs = psi_vector(tag, 5, M)
            polys = gs.polynomial_components()  # raises if not polynomial
            assert len(polys) == 32


class TestEigen:
    @pytest.mark.parametrize("tag,M", ALL)
    def test_x_eigenvector(self, tag, M):
        for N in (1, 2, 3, 4, 5):
            assert verify_x_eigen(psi_vector(tag, N, M)), (tag, N)

    def test_eigenvalue_values(self):
        assert candidate_eigenvalues("BI", 4, 2)[0][1] == RatioElem.from_ring(qint(6))
        lam = candidate_eigenvalues("A", 3, None)[0][1]
        assert lam.subst_Q(2).as_ring() == qint(5)


class TestAnnihilation:
    @pytest.mark.parametrize("tag,M", ALL)
    def test_annihilation(self, tag, M):
        for N in (2, 3, 4):
            rep = verify_annihilation(psi_vector(tag, N, M))
            assert all(rep.values()), (tag, N, rep)

    def test_e0_needs_condition(self):
        assert e0_requires_condition(2)


class TestChangeOfBasis:
    @pytest.mark.parametrize("tag,M", FAMILIES)
    def test_proportionality(self, tag, M):
        for N in (2, 3, 4):
            ok, scalar = oracle_change_of_basis(tag, N, M)
            assert ok
            assert scalar == R_ONE


class TestStructure:
    def test_positivity(self):
        for tag, M in ALL:
            for N in (3, 5):
                rep = structural_checks(psi_vector(tag, N, M))
                assert all(rep.values()), (tag, N, rep)

    def test_bi_leading_term_example(self):
        # d for b = +-+- with M = 2 is 8
        gs = psi_vector("BI", 4, 2)
        c = gs.factors["+-+-"].as_polynomial()
        assert c.max_q_degree() == 8
        assert c.terms[(8, 0, 0)] == 1

    def test_bi_bar_invariance(self):
        for M in (1, 2, 3):
            gs = psi_vector("BI", 4, M)
            for c in gs.polynomial_components().values():
                assert c.bar() == c


class TestNumeric:
    def test_pf(self):
        for a0 in (0.0, 0.1):
            lowest, pos = numeric_ground_state_check(4, 1.1, 1.3, 1.0, a0)
            assert abs(lowest) <= 1e-9
            assert pos["BI"] and pos["BIII"]

    def test_positivity_at_spectrum_size(self, monkeypatch):
        from tbtl import ground_state

        sizes = []
        build = ground_state.psi_vector

        def spy(tag, N, M=None):
            sizes.append(N)
            return build(tag, N, M)

        monkeypatch.setattr(ground_state, "psi_vector", spy)
        lowest, pos = numeric_ground_state_check(8, 1.1, 1.3, 1.0, 0.1)
        assert sizes == [8, 8]
        assert abs(lowest) <= 1e-8 and pos == {"BI": True, "BIII": True}

    def test_asymmetric_hamiltonian_refused(self, monkeypatch):
        from tbtl import ground_state

        build = ground_state.standard_operator

        def skewed(N, gen):
            op = build(N, gen)
            if gen != "e1":
                return op
            # one extra entry below the diagonal with no partner above it
            op = {col: dict(column) for col, column in op.items()}
            op["+-"]["--"] = RingElem.const(1)
            return op

        monkeypatch.setattr(ground_state, "standard_operator", skewed)
        with pytest.raises(ValueError, match="not symmetric"):
            numeric_ground_state_check(2, 1.1, 1.3, 1.0, 0.1)

    def test_biii_positive_any_point(self):
        gs = psi_vector("BIII", 6)
        vals = gs.evaluate(SpecPoint(Fraction(13, 7), Fraction(2, 9), 1))
        assert all(v > 0 for v in vals.values())


class TestSerialization:
    def test_ground_state_json(self):
        data = psi_vector("BI", 3, 2).to_json()
        assert data["type"] == "BI" and data["M"] == 2 and data["N"] == 3
        assert len(data["components"]) == 8
