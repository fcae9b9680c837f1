from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tbtl.algebra import (
    alpha_closed_form,
    check_defining_relations,
    check_quotient_alpha,
    commutation_check,
    generator_matrix,
    generator_names,
    hamiltonian_matrix,
    op_apply,
    op_eq,
    op_mul,
    op_scale,
    pauli_equivalence_check,
    x_matrix_coproduct,
    x_matrix_direct,
    x_matrix_standard,
)
from tbtl import algebra
from tbtl.basis import enumerate_strings, flip
from tbtl.ring import RatioElem, RingElem, R_ONE, angle, qdiff, qQ_bracket, qint

mono = RingElem.mono


def r(c):
    return RatioElem.from_ring(c)


def reference_generator(N, gen):
    """The standard-basis matrix of e_i, e_N or e_0 built string by string."""
    out = {}
    if gen not in ("eN", "e0"):
        i = int(gen[1:])
        for s in enumerate_strings(N):
            a, b = s[i - 1], s[i]
            col = {}
            if (a, b) == ("+", "-"):
                col[s] = r(mono(-1, -1))
                col[flip(s, {i: "-", i + 1: "+"})] = R_ONE
            elif (a, b) == ("-", "+"):
                col[flip(s, {i: "+", i + 1: "-"})] = R_ONE
                col[s] = r(mono(-1, 1))
            out[s] = col
        return out
    if gen == "eN":
        site, dplus, dminus = N, r(mono(-1, 0, -1)), r(mono(-1, 0, 1))
    else:
        site, dplus, dminus = 1, r(mono(-1, 0, 0, 1)), r(mono(-1, 0, 0, -1))
    for s in enumerate_strings(N):
        col = {flip(s, {site: "-" if s[site - 1] == "+" else "+"}): R_ONE}
        col[s] = dplus if s[site - 1] == "+" else dminus
        out[s] = col
    return out


class TestGenerators:
    def test_eN_at_n1(self):
        E = generator_matrix(1, "eN")
        assert E["+"] == {"+": r(mono(-1, 0, -1)), "-": R_ONE}
        assert E["-"] == {"-": r(mono(-1, 0, 1)), "+": R_ONE}

    def test_ei_squared(self):
        for N in (2, 3, 4):
            for i in range(1, N):
                E = generator_matrix(N, f"e{i}")
                loop = r(-(mono(1, 1) + mono(1, -1)))
                assert op_eq(op_mul(E, E), op_scale(E, loop))

    def test_boundary_commute(self):
        for N in (2, 3):
            EN = generator_matrix(N, "eN")
            E0 = generator_matrix(N, "e0")
            assert op_eq(op_mul(EN, E0), op_mul(E0, EN))

    def test_out_of_range(self):
        for N, gen in [(3, "e3"), (3, "e0x"), (3, "e"), (3, "f1"), (2, "e-1")]:
            with pytest.raises(ValueError):
                generator_matrix(N, gen)

    def test_matches_per_string_builder(self):
        for N in range(1, 6):
            for gen in generator_names(N):
                assert generator_matrix(N, gen) == reference_generator(N, gen), (N, gen)

    def test_relations_full(self):
        for N in (2, 3, 4, 5):
            report = check_defining_relations(N)
            assert all(report.values()), {k: v for k, v in report.items() if not v}


class TestQuotient:
    def test_alpha_even(self):
        # (1/Q - Q0/q)(Q - q/Q0) expanded
        expect = (mono(1, 0, -1) - mono(1, -1, 0, 1)) * (mono(1, 0, 1) - mono(1, 1, 0, -1))
        assert alpha_closed_form(2) == expect
        assert alpha_closed_form(4) == expect

    def test_quotient_identities(self):
        for N in (2, 3, 4, 5):
            assert check_quotient_alpha(N) is True, N

    def test_wrong_alpha_fails(self, monkeypatch):
        closed = algebra.alpha_closed_form
        monkeypatch.setattr(algebra, "alpha_closed_form", lambda N: closed(N) + mono(1, 1))
        for N in (2, 3):
            assert check_quotient_alpha(N) is False, N

    def test_zero_words_fail(self, monkeypatch):
        # with e_g = 0 both identities hold for any alpha, so only I != 0 fails
        monkeypatch.setattr(
            algebra, "generator_matrix", lambda N, gen: {s: {} for s in enumerate_strings(N)}
        )
        for N in (2, 3):
            assert check_quotient_alpha(N) is False, N


class TestHamiltonian:
    def test_assembly(self):
        N = 2
        gens = {gen: generator_matrix(N, gen) for gen in generator_names(N)}
        H = hamiltonian_matrix(N, R_ONE, R_ONE)
        manual = op_scale(gens["e1"], RatioElem.from_int(-1))
        manual = {
            col: {
                row: c - gens["eN"][col].get(row, RatioElem.from_int(0))
                - gens["e0"][col].get(row, RatioElem.from_int(0))
                for row in set(col2) | set(gens["eN"][col]) | set(gens["e0"][col])
                for c in [col2.get(row, RatioElem.from_int(0))]
            }
            for col, col2 in manual.items()
        }
        assert op_eq(H, manual)

    def test_pauli_form(self):
        # affine in the couplings, so a few points pin the identity; a0 = 1/10
        # is the kind of coupling the numeric check passes
        pts = [(0, 0), (1, 0), (0, 1), (2, 3), (Fraction(1, 10), 1)]
        for N in (2, 3):
            for a0, aN in pts:
                assert pauli_equivalence_check(
                    N, RatioElem.rational(a0), RatioElem.rational(aN)
                ), (N, a0, aN)


class TestX:
    def test_n1_action(self):
        X = x_matrix_standard(1)
        s = qQ_bracket(0)
        assert X["+"]["-"] == R_ONE
        assert X["+"]["+"] == s.mul_ring(mono(1, 1))
        assert X["-"]["+"] == R_ONE
        assert X["-"]["-"] == s.mul_ring(mono(1, -1))

    def test_builds_agree(self):
        for N in range(1, 7):
            assert op_eq(x_matrix_direct(N), x_matrix_coproduct(N))

    def test_offdiagonal_count(self):
        for N in (2, 4):
            X = x_matrix_direct(N)
            for col, column in X.items():
                off = [row for row in column if row != col]
                assert len(off) == N

    def test_commutant(self):
        for N in (2, 3, 4, 5):
            report = commutation_check(N)
            assert all(report.values()), (N, report)

    def test_e0_does_not_commute(self):
        X = x_matrix_standard(2)
        E0 = generator_matrix(2, "e0")
        assert not op_eq(op_mul(E0, X), op_mul(X, E0))


# -- op_apply against the product-by-product loop ---------------------------------


def reference_apply(A, v):
    """A v as one RatioElem product per (vector entry, matrix entry), each
    added into its row at once and the row dropped when it sums to zero."""
    out = {}
    for col, c in v.items():
        if c.is_zero():
            continue
        for row, a in A[col].items():
            p = c * a
            if p.is_zero():
                continue
            cur = out.get(row)
            nxt = p if cur is None else cur + p
            if nxt.is_zero():
                out.pop(row, None)
            else:
                out[row] = nxt
    return out


_STRINGS = ("++", "+-", "-+", "--")
# A few atoms, so that entries share atoms, differ in them or have none;
# [2] = <1> and the two objects for [3] are equal atoms built apart.
_ATOMS = (qint(2), qint(3), angle(1), qdiff(), RingElem(qint(3).terms))
_terms = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(0, 1)),
    st.integers(-2, 2).filter(bool),
    max_size=3,
)
_entries = st.builds(
    lambda terms, den: RatioElem(RingElem(terms), den),
    _terms,
    st.one_of(st.just(()), st.lists(st.sampled_from(_ATOMS), max_size=2)),
)


@st.composite
def apply_inputs(draw):
    A = {s: draw(st.dictionaries(st.sampled_from(_STRINGS), _entries, max_size=4)) for s in _STRINGS}
    v = draw(st.dictionaries(st.sampled_from(_STRINGS), _entries, max_size=4))
    if draw(st.booleans()):
        # two columns whose products cancel in every row
        s, t = draw(st.permutations(_STRINGS))[:2]
        c = draw(_entries)
        A[t] = dict(A[s])
        v[s], v[t] = c, -c
    return A, v


def _snapshot(A, v):
    entries = [c for col in A.values() for c in col.values()] + list(v.values())
    return [(dict(c.num.terms), c.den) for c in entries], {id(c.num.terms) for c in entries}


@settings(max_examples=300, deadline=None)
@given(apply_inputs())
def test_op_apply_matches_reference_loop(inputs):
    A, v = inputs
    before, input_dicts = _snapshot(A, v)
    got, want = op_apply(A, v), reference_apply(A, v)
    for row in {**got, **want}:
        assert got.get(row, RatioElem.from_int(0)) == want.get(row, RatioElem.from_int(0)), row
    assert all(not c.is_zero() for c in got.values())
    assert _snapshot(A, v)[0] == before
    assert not any(id(c.num.terms) in input_dicts for c in got.values())
