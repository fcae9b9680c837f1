from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
import gc
import tracemalloc

import pytest

from tbtl.basis import build_diagram, specialize
from tbtl.ground_state import (
    E0_GENERIC,
    FactorizedScalar,
    GroundState,
    _at_integrable_point,
    _component,
    _psd_blocks,
    numeric_ground_state_check,
    oracle_change_of_basis,
    psi_component,
    psi_vector,
    structural_checks,
    verify_annihilation,
    verify_x_eigen,
)
from tbtl.algebra import (
    generator_names,
    identity_mismatches,
    op_apply,
    pauli_hamiltonian,
    unit_columns,
    vector_mismatches,
)
from tbtl.coideal import candidate_eigenvalues
from tbtl.kl_action import kl_operator
from tbtl.ring import (
    RatioElem,
    RingElem,
    SpecPoint,
    ZeroDenominator,
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
        comps = psi_vector("standard", 4).components()
        assert comps["++-+"] == RatioElem(mono(1, 5, 3))
        assert comps["--++"] == RatioElem(mono(1, 1, 2))
        assert comps["--+-"] == RatioElem(mono(1, 1, 1))

    def test_BII(self):
        f = psi_component("BII", build_diagram("BII", "++-+---++-"))
        num = RingElem.mono(1)
        for n in (3, 4, 5, 6):
            num = num * qint(n)
        for i in range(2, 7):
            num = num * qshift(i - 1)
        assert f.to_ratio() == RatioElem(num, (qint(2), qint(3)))

    def test_BIII(self):
        f = psi_component("BIII", build_diagram("BIII", "++---++--+-"))
        num = RingElem.mono(1)
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
            f = psi_vector("standard", N).factors["+" * N]
            assert f.to_ratio() == RatioElem(mono(1, N * (N - 1) // 2, N))

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
        assert candidate_eigenvalues("BI", 4, 2)[0][1] == RatioElem(qint(6))
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


def reference_annihilation(gs: GroundState) -> dict[str, bool]:
    """verify_annihilation with the image e_0 Psi built in full: op_apply,
    then Q0 -> q^{1-N} Q^{-1} on every entry of the image (subst_Q0), then
    the family's parameters (specialize)."""
    N, tag, M = gs.N, gs.tag, gs.M
    columns = {"Psi": gs.components()}
    report = {}
    for gen in generator_names(N):
        if gen == "e0":
            image = op_apply(kl_operator(tag, N, gen, M), columns["Psi"])
            report[E0_GENERIC] = bool(image)
            image = specialize({s: v.subst_Q0(N) for s, v in image.items()}, tag, M)
            report[gen] = not any(vector_mismatches(image, {}))
        else:
            report[gen] = not any(
                identity_mismatches(columns, [(R_ONE, (kl_operator(tag, N, gen, M),))], [])
            )
    return report


def outcome(check, gs):
    """The report of check on gs, or ZeroDenominator if it raised that."""
    try:
        return check(gs)
    except ZeroDenominator as exc:
        return type(exc)


def annihilation_peaks(tag: str, N: int, M: int | None) -> tuple[int, int]:
    """The traced peaks, in bytes, of verify_annihilation and of
    reference_annihilation on the same ground state, in this process.  Psi
    is expanded and both checks run once untraced first, so that neither
    side pays for the caches it fills (diagrams, quantum integers)."""
    gs = psi_vector(tag, N, M)
    assert verify_annihilation(gs) == reference_annihilation(gs)
    peaks = []
    for check in (verify_annihilation, reference_annihilation):
        gc.collect()
        tracemalloc.start()
        try:
            check(gs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[0], peaks[1]


ANNIHILATION_FAMILIES = [
    ("A", None), ("BI", 1), ("BI", 2), ("BI", 3), ("BII", None), ("BIII", None)
]


def peak_bound(tag: str, M: int | None) -> float:
    """The largest share of the reference's traced peak that
    verify_annihilation may reach."""
    return 0.5 if (tag, M) in (("BI", 2), ("BIII", None)) else 0.8


class TestAnnihilationRowByRow:
    """verify_annihilation decides e_0 Psi = 0 one row at a time; the
    reference builds the image in full and substitutes into it."""

    @pytest.mark.parametrize("tag,M", ANNIHILATION_FAMILIES + [("standard", None)])
    def test_substitution_keeps_the_entries_it_leaves_equal(self, tag, M):
        # Psi is free of Q0 (and of Q for BI): its substituted copy shares
        # every component, which keeps it out of the row's peak
        psi = psi_vector(tag, 4, M).components()
        at_point = _at_integrable_point(psi, tag, 4, M)
        assert all(at_point[s] is c for s, c in psi.items())
        moved = {"+": RatioElem(mono(1, 0, 0, 1)), "-": R_ONE}
        got = _at_integrable_point(moved, tag, 4, M)
        assert got["-"] is R_ONE
        assert got["+"] == specialize({"+": RatioElem(mono(1, -3, -1))}, tag, M)["+"]

    @pytest.mark.parametrize("tag,M", ANNIHILATION_FAMILIES)
    def test_matches_the_full_image(self, tag, M):
        for N in range(1, 7):
            gs = psi_vector(tag, N, M)
            got, want = verify_annihilation(gs), reference_annihilation(gs)
            assert list(got.items()) == list(want.items()), (tag, M, N)

    @staticmethod
    def perturbed_e0(monkeypatch, N, change):
        """e_0 with change applied to the first entry of the column "+...+"."""
        from tbtl import kl_action

        rule = kl_action.apply_e0_kl

        def mutant(tag, D):
            out = rule(tag, D)
            if D.string == "+" * N:
                row = next(iter(out))
                out[row] = change(out[row])
            return out

        monkeypatch.setattr(kl_action, "apply_e0_kl", mutant)

    @staticmethod
    def row_fails(capsys, tag, M, N):
        from tbtl.cli import main

        family = ["--type", tag] + (["--m", str(M)] if M else [])
        code = main(["verify", "--check", "annihilation", *family, "--n", str(N)])
        out = capsys.readouterr().out
        assert (code == 1) == out.startswith("FAIL  e_g Psi = 0 (e_0 at the integrable point)")
        return code == 1

    @pytest.mark.parametrize("tag,M", [("A", None), ("BI", 2), ("BIII", None)])
    @pytest.mark.parametrize("N", [2, 4])
    def test_perturbed_e0_entry_fails(self, capsys, monkeypatch, tag, M, N):
        # 1 added to an entry stays 1 at the integrable point, so the row of
        # e_0 Psi that the entry feeds gains Psi_{+...+}
        self.perturbed_e0(monkeypatch, N, lambda c: c + R_ONE)
        gs = psi_vector(tag, N, M)
        got, want = verify_annihilation(gs), reference_annihilation(gs)
        assert got == want and got[E0_GENERIC] and not got["e0"]
        assert self.row_fails(capsys, tag, M, N)

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("N", [2, 4])
    def test_bi_component_times_Q_over_q_to_the_M(self, capsys, monkeypatch, M, N):
        # Q q^-M is 1 at Q = q^M, so e_0 Psi = 0 still holds there; with
        # the substitution left off Psi's components the e0 entry would fail.
        # The e_i, checked with Q free, fail on both paths.
        from tbtl import ground_state

        build = ground_state.psi_vector

        def mutant(tag, N, M=None):
            gs = build(tag, N, M)
            f = gs.factors["+" * N]
            factors = {**gs.factors, "+" * N: replace(f, q_exp=f.q_exp - M, Q_exp=f.Q_exp + 1)}
            return GroundState(tag, N, M, factors)

        monkeypatch.setattr(ground_state, "psi_vector", mutant)
        gs = mutant("BI", N, M)
        got, want = verify_annihilation(gs), reference_annihilation(gs)
        assert got == want and got[E0_GENERIC] and got["e0"] and not all(got.values())
        assert self.row_fails(capsys, "BI", M, N)

    @pytest.mark.parametrize("tag,M", [("A", None), ("BI", 2), ("BIII", None)])
    @pytest.mark.parametrize("N", [2, 4])
    def test_e0_atom_vanishing_at_the_integrable_point_fails(self, capsys, monkeypatch, tag, M, N):
        # Q0 Q q^{N-1} - 1 is 0 at Q0 = q^{1-N} Q^{-1}: as a denominator
        # atom of an e_0 entry it makes the substitution raise on both paths
        atom = RingElem({(N - 1, 1, 1): 1, (0, 0, 0): -1})
        self.perturbed_e0(monkeypatch, N, lambda c: c * RatioElem(mono(1), (atom,)))
        gs = psi_vector(tag, N, M)
        assert outcome(verify_annihilation, gs) is outcome(reference_annihilation, gs) is ZeroDenominator
        assert self.row_fails(capsys, tag, M, N)


class TestAnnihilationPeak:
    # At N = 7 on Python 3.11 the row-wise check read, as a share of the
    # reference's traced peak: A 0.62, BI M = 1, 2, 3 0.36, 0.30, 0.26, BII
    # 0.22, BIII 0.18, standard 0.68: the full image and its substituted
    # copies are gone.
    @pytest.mark.parametrize("tag,M", ANNIHILATION_FAMILIES + [("standard", None)])
    def test_traced_peak_below_the_full_image(self, tag, M):
        got, reference = annihilation_peaks(tag, 7, M)
        assert got <= peak_bound(tag, M) * reference, (tag, M, got, reference)


class TestChangeOfBasis:
    @pytest.mark.parametrize("tag,M", FAMILIES)
    def test_proportionality(self, tag, M):
        for N in (2, 3, 4):
            assert oracle_change_of_basis(psi_vector(tag, N, M)), (tag, N)


class TestComponentValue:
    def test_frozen(self):
        f = psi_component("A", build_diagram("A", "+-+-"))
        with pytest.raises(FrozenInstanceError):
            f.q_exp = 1

    def test_bracket_guard(self):
        # [1] is left out; a bracket [n] with n <= 0 is refused on either side
        assert _component([1, 2], [1], q_exp=3) == FactorizedScalar(3, 0, (qint(2),), ())
        for n in (0, -2):
            with pytest.raises(ValueError, match="nonpositive"):
                _component([n])
            with pytest.raises(ValueError, match="nonpositive"):
                _component((), [n])

    def test_standard_basis_only_through_psi_vector(self):
        with pytest.raises(ValueError):
            psi_component("standard", build_diagram("A", "+-"))


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
        H = [(-a, (E,)) for a, E in seen[0]]
        pauli = pauli_hamiltonian(N, R_ONE, RatioElem.rational(a0))
        assert not any(identity_mismatches(unit_columns(N), H, pauli))

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
