from fractions import Fraction

import pytest

from tbtl.basis import build_diagram
from tbtl.ground_state import (
    E0_GENERIC,
    GroundState,
    NonPolynomialComponent,
    _psd_blocks,
    numeric_ground_state_check,
    oracle_change_of_basis,
    psi_component,
    psi_vector,
    structural_checks,
    verify_annihilation,
    verify_x_eigen,
)
from tbtl.algebra import _add_scaled, op_eq, pauli_hamiltonian
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
        assert f.to_ratio() == RatioElem(num, (qint(2), qint(3)))

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
        assert f.to_ratio() == RatioElem(num, (qint(2), qint(3)))

    def test_BIII(self):
        f = psi_component("BIII", build_diagram("BIII", "++---++--+-"))
        num = RingElem.const(1)
        for n in (3, 4, 5, 6, 7, 8):
            num = num * qint(n)
        for i in range(1, 6):
            num = num * qshift(i - 1)
        assert f.to_ratio() == RatioElem(num, (qint(2), qint(3), qint(6)))

    def test_BI_twelve_factors(self):
        f = psi_component("BI", build_diagram("BI", "++--+--+--+---++-+", 2))
        num = qint(20) * qint(3) * qint(13)
        for n in range(3, 11):
            num = num * qint(n)
        for i in (1, 2, 3, 4, 6, 7, 9):
            num = num * angle(i + 1)
        dens = tuple(qint(n) for n in (2, 3, 4, 6, 9, 14))
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
        # e_0 Psi vanishes only after the integrable substitution
        for tag, M in ALL:
            for N in (1, 2, 3):
                assert verify_annihilation(psi_vector(tag, N, M))[E0_GENERIC], (tag, N)


class TestChangeOfBasis:
    @pytest.mark.parametrize("tag,M", FAMILIES)
    def test_proportionality(self, tag, M):
        for N in (2, 3, 4):
            ok, scalar = oracle_change_of_basis(psi_vector(tag, N, M))
            assert ok
            assert scalar == R_ONE


class TestToRatio:
    @staticmethod
    def expand_then_reduce(f):
        """Every numerator atom multiplied in first, then reduced by exact
        division."""
        num = mono(1, f.q_exp, f.Q_exp)
        for atom in f.num:
            num = num * atom
        return RatioElem(num, f.den).reduced()

    @pytest.mark.parametrize("tag,M", ALL)
    def test_matches_expand_then_reduce(self, tag, M):
        p = SpecPoint(Fraction(3, 2), Fraction(5, 7), 1)
        for N in range(1, 7):
            for s, f in psi_vector(tag, N, M).factors.items():
                got, want = f.to_ratio(), self.expand_then_reduce(f)
                assert (got.num, got.den) == (want.num, want.den), (tag, M, N, s)
                assert got.evaluate(p) == want.evaluate(p) == f.evaluate(p)


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
    q, Q = Fraction(11, 10), Fraction(13, 10)

    def test_pf(self):
        for a0 in (Fraction(0), Fraction(1, 10)):
            certified, pos = numeric_ground_state_check(4, self.q, self.Q, Fraction(1), a0)
            assert certified
            assert pos["BI"] and pos["BIII"]

    def test_positivity_at_spectrum_size(self, monkeypatch):
        from tbtl import ground_state

        sizes = []
        build = ground_state.psi_vector

        def spy(tag, N, M=None):
            sizes.append(N)
            return build(tag, N, M)

        monkeypatch.setattr(ground_state, "psi_vector", spy)
        certified, pos = numeric_ground_state_check(8, self.q, self.Q, Fraction(1), Fraction(1, 10))
        assert sizes == [8, 8]
        assert certified and pos == {"BI": True, "BIII": True}

    def test_asymmetric_hamiltonian_refused(self, monkeypatch):
        from tbtl import algebra

        build = algebra.generator_matrix

        def skewed(N, gen):
            op = build(N, gen)
            if gen != "e1":
                return op
            # one extra entry below the diagonal with no partner above it
            op = {col: dict(column) for col, column in op.items()}
            op["+-"]["--"] = R_ONE
            return op

        monkeypatch.setattr(algebra, "generator_matrix", skewed)
        certified, pos = numeric_ground_state_check(2, self.q, self.Q, Fraction(1), Fraction(1, 10))
        # the positivity part is unaffected
        assert certified is False
        assert pos == {"BI": True, "BIII": True}

    @pytest.mark.parametrize(
        "rows, psd",
        [
            ({0: {0: 1, 1: -1}, 1: {0: -1, 1: 1}, 2: {2: 3}}, True),
            ({0: {0: 1, 1: -2}, 1: {0: -2, 1: 1}}, False),  # determinant < 0
            ({0: {0: -1}}, False),  # negative diagonal
            ({0: {0: 1, 1: -1}, 1: {0: -2, 1: 1}}, False),  # not symmetric
            ({0: {1: 1}}, False),  # no partner row
            ({0: {0: 2, 1: 1}, 1: {0: 1, 1: 2, 2: 1}, 2: {1: 1, 2: 2}}, False),  # 3 x 3 block
        ],
    )
    def test_psd_blocks(self, rows, psd):
        assert _psd_blocks({i: {j: Fraction(v) for j, v in r.items()} for i, r in rows.items()}) is psd

    def test_degenerate_ground_state_refused(self):
        # without boundary terms the kernel of H is a whole U_q(sl2)
        # multiplet, so the lowest eigenvalue is 0 but not simple
        certified, _ = numeric_ground_state_check(4, self.q, self.Q, Fraction(0), Fraction(0))
        assert certified is False

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("a0", [Fraction(0), Fraction(1, 10)])
    def test_certified_terms_sum_to_verified_hamiltonian(self, monkeypatch, N, a0):
        # -sum a_g e_g over the terms the certificate reads is the spin-chain
        # H of pauli_equivalence_check, exactly
        from tbtl import ground_state

        seen = []
        terms = ground_state.hamiltonian_terms

        def spy(*args):
            seen.append(terms(*args))
            return seen[-1]

        monkeypatch.setattr(ground_state, "hamiltonian_terms", spy)
        certified, _ = numeric_ground_state_check(N, self.q, self.Q, Fraction(1), a0)
        assert certified and len(seen) == 1
        H = {}
        for a, E in seen[0]:
            _add_scaled(H, E, -a)
        assert op_eq(H, pauli_hamiltonian(N, R_ONE, RatioElem.rational(a0)))

    def test_biii_positive_any_point(self):
        gs = psi_vector("BIII", 6)
        vals = gs.evaluate(SpecPoint(Fraction(13, 7), Fraction(2, 9), 1))
        assert all(v > 0 for v in vals.values())


class TestSerialization:
    def test_ground_state_json(self):
        data = psi_vector("BI", 3, 2).to_json()
        assert data["type"] == "BI" and data["M"] == 2 and data["N"] == 3
        assert len(data["components"]) == 8


class TestComponentsMemo:
    def test_expanded_once_per_ground_state(self, monkeypatch):
        from tbtl.ground_state import FactorizedScalar

        calls = []
        to_ratio = FactorizedScalar.to_ratio
        monkeypatch.setattr(
            FactorizedScalar, "to_ratio", lambda self: calls.append(1) or to_ratio(self)
        )
        gs = psi_vector("BI", 4, 2)
        gs.components()
        gs.components()
        gs.polynomial_components()
        assert verify_x_eigen(gs) and all(verify_annihilation(gs).values())
        assert len(calls) == 16

    def test_mutation_does_not_reach_a_later_call(self):
        gs = psi_vector("A", 3)
        first = gs.components()
        want = {s: (dict(c.num.terms), c.den) for s, c in first.items()}
        first.clear()
        first["+++"] = R_ONE
        second = gs.components()
        second.pop("---")
        third = gs.components()
        assert third is not first and third is not second
        assert {s: (dict(c.num.terms), c.den) for s, c in third.items()} == want
        assert verify_x_eigen(gs)
