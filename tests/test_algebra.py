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
    hamiltonian_terms,
    identity_mismatches,
    op_apply,
    pauli_equivalence_check,
    unit_columns,
    vector_mismatches,
    x_matrix_coproduct,
    x_matrix_direct,
    x_matrix_standard,
)
from tbtl import algebra
from tbtl.basis import enumerate_strings, flip
from tbtl.ring import RatioElem, RingElem, R_ONE, R_ZERO, angle, qdiff, qQ_bracket, qint

mono = RingElem.mono


def reference_generator(N, gen):
    """The standard-basis matrix of e_i, e_N or e_0 built string by string."""
    out = {}
    if gen not in ("eN", "e0"):
        i = int(gen[1:])
        for s in enumerate_strings(N):
            a, b = s[i - 1], s[i]
            col = {}
            if (a, b) == ("+", "-"):
                col[s] = RatioElem(mono(-1, -1))
                col[flip(s, {i: "-", i + 1: "+"})] = R_ONE
            elif (a, b) == ("-", "+"):
                col[flip(s, {i: "+", i + 1: "-"})] = R_ONE
                col[s] = RatioElem(mono(-1, 1))
            out[s] = col
        return out
    if gen == "eN":
        site, dplus, dminus = N, RatioElem(mono(-1, 0, -1)), RatioElem(mono(-1, 0, 1))
    else:
        site, dplus, dminus = 1, RatioElem(mono(-1, 0, 0, 1)), RatioElem(mono(-1, 0, 0, -1))
    for s in enumerate_strings(N):
        col = {flip(s, {site: "-" if s[site - 1] == "+" else "+"}): R_ONE}
        col[s] = dplus if s[site - 1] == "+" else dminus
        out[s] = col
    return out


class TestGenerators:
    def test_eN_at_n1(self):
        E = generator_matrix(1, "eN")
        assert E["+"] == {"+": RatioElem(mono(-1, 0, -1)), "-": R_ONE}
        assert E["-"] == {"-": RatioElem(mono(-1, 0, 1)), "+": R_ONE}

    def test_ei_squared(self):
        for N in (2, 3, 4):
            for i in range(1, N):
                E = generator_matrix(N, f"e{i}")
                loop = RatioElem(-(mono(1, 1) + mono(1, -1)))
                squared, scaled = [(R_ONE, (E, E))], [(loop, (E,))]
                assert not any(identity_mismatches(unit_columns(N), squared, scaled))

    def test_boundary_commute(self):
        for N in (2, 3):
            EN = generator_matrix(N, "eN")
            E0 = generator_matrix(N, "e0")
            assert not any(
                identity_mismatches(unit_columns(N), [(R_ONE, (EN, E0))], [(R_ONE, (E0, EN))])
            )

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
        H = [(-a, (E,)) for a, E in hamiltonian_terms(N, R_ONE, R_ONE)]
        manual = {col: {row: -c for row, c in column.items()} for col, column in gens["e1"].items()}
        manual = {
            col: {
                row: c - gens["eN"][col].get(row, RatioElem.rational(0))
                - gens["e0"][col].get(row, RatioElem.rational(0))
                for row in set(col2) | set(gens["eN"][col]) | set(gens["e0"][col])
                for c in [col2.get(row, RatioElem.rational(0))]
            }
            for col, col2 in manual.items()
        }
        assert not any(identity_mismatches(unit_columns(N), H, [(R_ONE, (manual,))]))

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
        assert X["+"]["+"] == s * RatioElem(mono(1, 1))
        assert X["-"]["+"] == R_ONE
        assert X["-"]["-"] == s * RatioElem(mono(1, -1))

    def test_builds_agree(self):
        for N in range(1, 7):
            direct, coproduct = [(R_ONE, (x_matrix_direct(N),))], [(R_ONE, (x_matrix_coproduct(N),))]
            assert not any(identity_mismatches(unit_columns(N), direct, coproduct))

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

    def test_standard_names_first_difference(self, monkeypatch):
        build = algebra.x_matrix_coproduct

        def wrong(N):
            X = {col: dict(column) for col, column in build(N).items()}
            if N == 2:  # not in the recursive call for N = 1
                X["+-"]["--"] = RatioElem.rational(2)  # the flip of site 1 has weight 1
            return X

        monkeypatch.setattr(algebra, "x_matrix_coproduct", wrong)
        with pytest.raises(AssertionError) as err:
            x_matrix_standard(2)
        assert str(err.value) == "the two constructions of X disagree at column +-, row --"

    def test_e0_does_not_commute(self):
        X = x_matrix_standard(2)
        E0 = generator_matrix(2, "e0")
        assert any(identity_mismatches(unit_columns(2), [(R_ONE, (E0, X))], [(R_ONE, (X, E0))]))


# -- the identity kernel ------------------------------------------------------


def test_kernel_locates_perturbed_entry():
    # e2 on N=3 with the entry at (row +-+, column ++-) doubled; e2^2 = -[2] e2
    # then fails at one row in each of the two columns that read it
    E = {col: dict(column) for col, column in generator_matrix(3, "e2").items()}
    E["++-"]["+-+"] = RatioElem.rational(2)
    loop = RatioElem(-(mono(1, 1) + mono(1, -1)))
    got = list(identity_mismatches(unit_columns(3), [(R_ONE, (E, E))], [(loop, (E,))]))
    assert got == [
        ("+-+", "+-+", RatioElem(mono(2) + mono(1, 2)), RatioElem(mono(1) + mono(1, 2))),
        ("++-", "++-", RatioElem(mono(2) + mono(1, -2)), RatioElem(mono(1) + mono(1, -2))),
    ]
    # and the unperturbed matrix satisfies it
    E2 = generator_matrix(3, "e2")
    assert not any(identity_mismatches(unit_columns(3), [(R_ONE, (E2, E2))], [(loop, (E2,))]))
    # one diagonal entry of X at N = 3 moved by q/[2]: e1 commutes with the
    # true X, and the perturbed one fails on the two columns that read the
    # entry, with the tuples the two-sided kernel gives, atoms included
    X = {col: dict(column) for col, column in x_matrix_direct(3).items()}
    X["+-+"]["+-+"] = X["+-+"]["+-+"] + RatioElem(mono(1, 1), (qint(2),))
    E1 = generator_matrix(3, "e1")
    sides = [(R_ONE, (E1, X))], [(R_ONE, (X, E1))]
    got = list(identity_mismatches(unit_columns(3), *sides))
    lam = "(-1*q*Q^-1 + q*Q) / (-1*q^-1 + q)"
    moved = "(-1*Q^-1 - 1 + Q - 1*q^2*Q^-1 + q^2 + q^2*Q) / (-1*q^-1 + q, q^-1 + q)"
    assert [(c, r, a.to_text(), b.to_text()) for c, r, a, b in got] == [
        ("-++", "+-+", lam, moved),
        ("+-+", "-++", moved, lam),
    ]
    assert _exact(got) == _exact(reference_mismatches(unit_columns(3), *sides))


def test_vector_mismatches_reads_a_missing_entry_as_zero():
    zero, one = RatioElem.rational(0), R_ONE
    assert list(vector_mismatches({"+": one, "-": zero}, {"+": one})) == []
    assert list(vector_mismatches({"+": one}, {"-": one})) == [("+", one, zero), ("-", zero, one)]


def test_e0_commutant_stops_at_first_differing_column(monkeypatch):
    # the [e0, X] != 0 entry applies fewer operators than one full product
    # E X, which is one op_apply per column of X
    N = 6
    generator_matrix(N, "X")
    calls = []
    apply = algebra.op_apply

    def counted(A, v):
        calls.append(1)
        return apply(A, v)

    monkeypatch.setattr(algebra, "generator_names", lambda N: ["e0"])
    monkeypatch.setattr(algebra, "op_apply", counted)
    assert commutation_check(N) == {"[e0, X] != 0": True}
    assert 0 < len(calls) < 2**N


# -- the locality certificates against the brute force --------------------------


def brute_force_relations(N):
    """check_defining_relations(N) with every row checked on every unit column."""
    return {label: algebra._holds(N, lhs, rhs) for label, _, lhs, rhs in algebra._relation_rows(N)}


def brute_force_commutant(N):
    """commutation_check(N) with every row checked on every unit column."""
    return {
        "[e0, X] != 0" if g == "e0" else f"[{g}, X] = 0":
            algebra._commutes_with_X(N, g) != (g == "e0")
        for g in generator_names(N)
    }


def _flip_bulk_sign(monkeypatch):
    monkeypatch.setitem(algebra._E_BULK, ("-+", "+-"), RatioElem.rational(-1))


def _flip_eN_sign(monkeypatch):
    monkeypatch.setitem(algebra._E_N, ("+", "+"), RatioElem(mono(1, 0, -1)))


def _scalar_e0(monkeypatch):
    # e0 = -(Q0 + 1/Q0) 1 keeps e0^2 = -(Q0 + 1/Q0) e0 but breaks e1 e0 e1,
    # and it commutes with X
    loop = RatioElem(-(mono(1, 0, 0, 1) + mono(1, 0, 0, -1)))
    monkeypatch.setattr(algebra, "_E_0", {("+", "+"): loop, ("-", "-"): loop})


def _x_as_bulk(monkeypatch):
    # e = X at N = 2 commutes with X at N = 2 but not with K ⊗ K, so above
    # N = 2 only the [e, K ⊗ K] = 0 premise fails the bulk commutant rows
    X = x_matrix_direct(2)
    monkeypatch.setattr(algebra, "_E_BULK", {(r, s): X[s][r] for s in X for r in X[s]})


@pytest.mark.parametrize(
    "mutant", [None, _flip_bulk_sign, _flip_eN_sign, _scalar_e0, _x_as_bulk]
)
def test_certificates_agree_with_brute_force(monkeypatch, mutant):
    # row by row, on the true local rules and under local-rule mutants
    algebra.generator_matrix.cache_clear()
    if mutant:
        mutant(monkeypatch)
    try:
        for N in range(2, 7):
            relations, commutant = check_defining_relations(N), commutation_check(N)
            assert relations == brute_force_relations(N), N
            assert commutant == brute_force_commutant(N), N
        # at N = 6 each mutant fails both claims, on both sides
        assert all(relations.values()) is all(commutant.values()) is (mutant is None)
    finally:
        algebra.generator_matrix.cache_clear()


# -- op_apply against the product-by-product loop ---------------------------------


def reference_apply(A, v):
    """A v as one RatioElem product per (vector entry, matrix entry), each
    added into its row at once and the row dropped when it sums to zero."""
    out = {}
    for col, c in v.items():
        if not c:
            continue
        for row, a in A[col].items():
            p = c * a
            if not p:
                continue
            cur = out.get(row)
            nxt = p if cur is None else cur + p
            if not nxt:
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
        assert got.get(row, RatioElem.rational(0)) == want.get(row, RatioElem.rational(0)), row
    assert all(got.values())
    assert _snapshot(A, v)[0] == before
    assert not any(id(c.num.terms) in input_dicts for c in got.values())


# -- identity_mismatches against the two-sided kernel ---------------------------


def reference_mismatches(columns, lhs, rhs):
    """The two-sided kernel: on each start vector both sides are built in
    full, each word applied right to left with op_apply (a unit vector's
    image read as the column, as apply_word does) and the words summed
    with RatioElem arithmetic, then compared by vector_mismatches."""

    def apply(word, v):
        for A in reversed(word):
            unit = len(v) == 1 and next(iter(v.values())) is R_ONE
            v = A[next(iter(v))] if unit else op_apply(A, v)
        return v

    def side(words, v):
        if len(words) == 1 and words[0][0] is R_ONE:
            return apply(words[0][1], v)
        out = {}
        for c, word in words:
            for row, x in apply(word, v).items():
                p = c * x
                if not p:
                    continue
                total = out.get(row, R_ZERO) + p
                if total:
                    out[row] = total
                else:
                    del out[row]
        return out

    for label, v in columns.items():
        first = next(vector_mismatches(side(lhs, v), side(rhs, v)), None)
        if first is not None:
            yield (label, *first)


def _exact(mismatches):
    """Mismatch tuples with each coefficient as its stored numerator and
    atoms, so equal values with different representations differ."""
    return [
        (col, row, *((dict(x.num.terms), x.den) for x in (a, b))) for col, row, a, b in mismatches
    ]


_operators = st.fixed_dictionaries(
    {s: st.dictionaries(st.sampled_from(_STRINGS), _entries, max_size=3) for s in _STRINGS}
)
_scalars = st.one_of(st.just(R_ONE), _entries)


@st.composite
def identity_inputs(draw):
    ops = [draw(_operators) for _ in range(2)]
    words = st.lists(st.sampled_from(ops), max_size=2).map(tuple)
    lhs = draw(st.lists(st.tuples(_scalars, words), max_size=3))
    kind = draw(st.sampled_from(["independent", "regrouped", "perturbed"]))
    if kind == "independent":
        rhs = draw(st.lists(st.tuples(_scalars, words), max_size=3))
    else:
        # the same sum with each scalar split in two: the sides are equal
        rhs = []
        for c, word in lhs:
            part = draw(_entries)
            rhs += [(part, word), (c - part, word)]
        rhs = draw(st.permutations(rhs))
        if kind == "perturbed":
            rhs.append((draw(_entries), draw(words)))
    columns = {s: {s: R_ONE} for s in _STRINGS}
    columns["v"] = draw(st.dictionaries(st.sampled_from(_STRINGS), _entries, max_size=3))
    return columns, lhs, rhs


@settings(max_examples=200, deadline=None)
@given(identity_inputs())
def test_identity_mismatches_matches_two_sided_kernel(inputs):
    columns, lhs, rhs = inputs
    got = _exact(identity_mismatches(columns, lhs, rhs))
    assert got == _exact(reference_mismatches(columns, lhs, rhs))


def test_equal_values_with_other_representations_pass():
    # [2]/[2] is 1 with an atom left in, and a plain row cancelled by a
    # fractional group sums to zero only under RatioElem addition
    two_over_two = RatioElem(qint(2), (qint(2),))
    v = {"v": {"+": R_ONE, "-": RatioElem(mono(1, 1))}}
    assert not any(identity_mismatches(v, [(two_over_two, ())], [(R_ONE, ())]))
    A = {"+": {"+": two_over_two}, "-": {"-": R_ONE}}
    assert not any(identity_mismatches(v, [(R_ONE, (A,))], [(R_ONE, ())]))
    cancelled = [(R_ONE, ()), (RatioElem(-qint(2), (qint(2),)), ())]
    assert not any(identity_mismatches(v, cancelled, []))
    # B + C = 0 with every entry of C written over other atoms than B's
    B = {"+": {"+": R_ONE, "-": RatioElem(mono(1, 1), (qdiff(),))}, "-": {"-": R_ONE}}
    C = {
        "+": {"+": RatioElem(-qint(2), (qint(2),)),
              "-": RatioElem(mono(-1, 1) * qint(2), (qdiff(), qint(2)))},
        "-": {"-": RatioElem(-qint(3), (qint(3),))},
    }
    assert not any(identity_mismatches(unit_columns(1), [(R_ONE, (B,)), (R_ONE, (C,))], []))


def test_scalars_empty_words_and_an_empty_side():
    # sigma^+ on one site: sigma^+ sigma^+ = 0, and [2] sigma^+ = (q + 1/q) sigma^+
    up = {"+": {}, "-": {"+": R_ONE}}
    ones = unit_columns(1)
    assert not any(identity_mismatches(ones, [(R_ONE, (up, up))], []))
    assert list(identity_mismatches(ones, [(R_ONE, (up,))], [])) == [("-", "+", R_ONE, R_ZERO)]
    qq = RatioElem(mono(1, 1) + mono(1, -1))
    assert not any(identity_mismatches(ones, [(RatioElem(qint(2)), (up,))], [(qq, (up,))]))
    # the identity as an empty word, scaled, against the same scalar times 1
    one = {"+": {"+": R_ONE}, "-": {"-": R_ONE}}
    assert not any(identity_mismatches(ones, [(qq, ())], [(qq, (one,))]))
    assert list(identity_mismatches(ones, [(qq, ())], [(qq, (up,))])) == [
        ("-", "-", qq, R_ZERO),
        ("+", "+", qq, R_ZERO),
    ]


def test_scalar_on_an_empty_word_matches_two_sided_kernel():
    # lam carries an atom that no vector entry has; the entries carry others
    lam = RatioElem(mono(1, 1) + mono(-2, 0, 1), (qdiff(),))
    columns = {
        "v": {"+": RatioElem(mono(1, -1), (qint(2),)), "-": RatioElem(qint(3), (angle(1), qint(3)))},
        "w": {"-": RatioElem(mono(3, 0, 0, 1)), "+": R_ONE},
        "+": {"+": R_ONE},
    }
    diagonal = {s: {s: lam} for s in ("+", "-")}  # lam times the identity, as an operator
    # lam written over one more atom, and lam split into parts that cancel
    lam_2 = RatioElem(lam.num * qint(2), (*lam.den, qint(2)))
    part = RatioElem(mono(1, 2), (angle(1),))
    cases = [
        ([(lam, ())], [(R_ONE, (diagonal,))]),
        ([(lam, ())], [(lam_2, ())]),
        ([(lam - part, ()), (part, ())], [(lam, ())]),
        ([(lam, ())], [(lam + lam, ())]),
        ([(lam, ()), (R_ZERO, ())], [(R_ONE, (diagonal,))]),
        ([(R_ZERO, ())], []),
        ([(R_ZERO, ())], [(R_ONE, ())]),
    ]
    for lhs, rhs in cases:
        got = list(identity_mismatches(columns, lhs, rhs))
        assert _exact(got) == _exact(reference_mismatches(columns, lhs, rhs)), (lhs, rhs)
    assert [not any(identity_mismatches(columns, lhs, rhs)) for lhs, rhs in cases] == [
        True, True, True, False, True, True, False
    ]
