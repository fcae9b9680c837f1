import math
import random
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tbtl import ring
from tbtl.ring import (
    NotDivisible,
    RatioElem,
    RingElem,
    SpecPoint,
    ZeroDenominator,
    angle,
    atom_eval,
    dangle,
    exact_div,
    is_positivity_class,
    qQ_bracket,
    qbinom,
    qfact,
    qdiff,
    qint,
    qshift,
    ONE,
    ZERO,
)


def mono(c, eq=0, eQ=0, eQ0=0):
    return RingElem.mono(c, eq, eQ, eQ0)


class TestQuantumIntegers:
    def test_zero(self):
        assert qint(0) == ZERO

    def test_three(self):
        assert qint(3) == mono(1, 2) + mono(1, 0) + mono(1, -2)

    def test_negative(self):
        # [-n] = -[n], the convention forced by the rational form
        assert qint(-2) == -(mono(1, 1) + mono(1, -1))
        num = mono(1, -2) - mono(1, 2)
        assert exact_div(num, mono(1, 1) - mono(1, -1)) == qint(-2)

    def test_qfact(self):
        assert qfact(3) == qint(3) * qint(2)
        assert qfact(3) == mono(1, 3) + mono(2, 1) + mono(2, -1) + mono(1, -3)

    def test_qbinom_edge(self):
        assert qbinom(5, 0) == ONE
        assert qbinom(5, 5) == ONE
        assert qbinom(5, -1) == ZERO
        assert qbinom(5, 6) == ZERO

    def test_qbinom_42(self):
        expected = mono(1, 4) + mono(1, 2) + mono(2, 0) + mono(1, -2) + mono(1, -4)
        assert qbinom(4, 2) == expected

    def test_qbinom_positive(self):
        for n in range(13):
            for m in range(n + 1):
                assert is_positivity_class(qbinom(n, m), "q")


class TestBrackets:
    def test_angle(self):
        assert angle(1) == mono(1, 1) + mono(1, -1)
        assert angle(0) == RingElem.const(2)

    def test_dangle(self):
        assert dangle(0) == mono(1, 0, 1) + mono(1, 0, -1)
        assert dangle(1) == mono(1, -1, 1) + mono(1, 1, -1)

    def test_dangle_at_Q_power(self):
        # <<k>> at Q = q^M becomes <M - k>
        assert RatioElem.from_ring(dangle(1)).subst_Q(3).num == angle(2)
        assert dangle(1).subst_Q(1) == RingElem.const(2)

    def test_qQ_bracket_reduces(self):
        for n in range(-6, 7):
            for M in range(1, 7):
                # the (q - q^-1) atom cancels in the substitution itself
                assert qQ_bracket(n).subst_Q(M).den == ()
                assert qQ_bracket(n).subst_Q(M).as_ring() == qint(M + n)

    def test_vanishing_atom_under_substitution(self):
        Q_minus_q2 = mono(1, 0, 1) - mono(1, 2)
        with pytest.raises(ZeroDenominator):
            RatioElem(ONE, (Q_minus_q2,)).subst_Q(2)
        assert RatioElem(ONE, (Q_minus_q2,)).subst_Q(3).den == (mono(1, 3) - mono(1, 2),)
        integrable = mono(1, 3, 1, 1) - ONE
        with pytest.raises(ZeroDenominator):
            RatioElem(ONE, (integrable,)).subst_Q0(4)

    def test_as_ring_needs_every_atom_to_divide(self):
        two_three = (qint(2), qint(3))
        for r in (RatioElem(ONE, (qint(2),)), qQ_bracket(1), RatioElem(qint(4), two_three)):
            with pytest.raises(NotDivisible):
                r.as_ring()
        assert RatioElem(qint(4) * qint(3), two_three).as_ring() == exact_div(qint(4), qint(2))

    def test_integrable_condition(self):
        # q^{N-1} Q Q0 -> 1 under the substitution
        for N in (1, 2, 5):
            e = mono(1, N - 1, 1, 1)
            assert e.subst_Q0(N) == ONE


class TestExactDivision:
    def test_basic(self):
        a = mono(1, 2) - mono(1, -2)
        b = mono(1, 1) - mono(1, -1)
        assert exact_div(a, b) == mono(1, 1) + mono(1, -1)

    def test_self(self):
        a = qint(5) * qshift(2) + qint(3)
        assert exact_div(a, a) == ONE

    def test_unit_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_div(ONE, qint(2))

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(60):
            def rand_poly():
                out = ZERO
                for _ in range(rng.randint(1, 8)):
                    out = out + mono(
                        rng.randint(-4, 4),
                        rng.randint(-3, 3),
                        rng.randint(-2, 2),
                        rng.randint(-1, 1),
                    )
                return out

            a, b = rand_poly(), rand_poly()
            if not a.terms or not b.terms:
                continue
            assert exact_div(a * b, b) == a


class TestBarAndEval:
    def test_bar_involutive(self):
        a = mono(3, 2, 1, -1) + mono(-2, 0, 4, 2)
        assert a.bar().bar() == a

    def test_qint_bar_invariant(self):
        for n in range(-6, 7):
            assert qint(n).bar() == qint(n)

    def test_eval_hom(self):
        rng = random.Random(1)
        p = SpecPoint(Fraction(2, 3), Fraction(5), Fraction(-7, 2))
        for _ in range(30):
            a = mono(rng.randint(-3, 3), rng.randint(-2, 2)) + mono(
                rng.randint(-3, 3), 0, rng.randint(-2, 2)
            )
            b = mono(rng.randint(-3, 3), 0, 0, rng.randint(-2, 2)) + RingElem.const(
                rng.randint(-2, 2)
            )
            assert (a * b).evaluate(p) == a.evaluate(p) * b.evaluate(p)

    def test_qint_at_one(self):
        for n in range(8):
            assert qint(n).evaluate(SpecPoint(1, 1, 1)) == n

    def test_ratio_division_chain(self):
        # [4][3]/[2] at q = 2, via exact division and via rationals
        poly = exact_div(qint(4) * qint(3), qint(2))
        p = SpecPoint(2, 1, 1)
        assert poly.evaluate(p) == qint(4).evaluate(p) * qint(3).evaluate(p) / qint(2).evaluate(p)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            qQ_bracket(0).evaluate(SpecPoint(1, 2, 1))

    def test_vanishing_atom_raises_on_every_lookup(self):
        p = SpecPoint(1, 2, 1)
        for _ in range(2):  # the second lookup reads the point's atom table
            with pytest.raises(ZeroDenominator):
                atom_eval(qdiff(), p)
            with pytest.raises(ZeroDenominator):
                qQ_bracket(3).evaluate(p)

    def test_spec_point_read_only(self):
        p = SpecPoint(2, 3, 5)
        with pytest.raises(AttributeError):
            p.q = Fraction(7)
        with pytest.raises(AttributeError):
            del p.Q
        assert (p.q, p.Q, p.Q0) == (2, 3, 5)


class TestRatioHash:
    def test_equal_values_unhashable(self):
        # [2][3]/[2] and [3][4]/[4] are both [3], over different denominators
        a = RatioElem(qint(2) * qint(3), (qint(2),))
        b = RatioElem(qint(3) * qint(4), (qint(4),))
        assert a.den != b.den and a == b
        for r in (a, b):
            with pytest.raises(TypeError):
                hash(r)


class TestPositivity:
    def test_classes(self):
        assert is_positivity_class(qbinom(5, 2), "q")
        assert not is_positivity_class(mono(1, 1) - ONE, "q")
        assert not is_positivity_class(mono(1, 0, -1), "qQ+")
        assert is_positivity_class(mono(1, 0, -1), "qQ")
        assert not is_positivity_class(mono(1, 0, 0, 1), "qQ")


class TestSerialization:
    def test_text(self):
        assert (mono(2, 1, 1) + ONE).to_text() == "1 + 2*q*Q"
        assert ZERO.to_text() == "0"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.integers(-3, 3),
            st.integers(-2, 2),
            st.integers(-4, 4),
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.integers(-3, 3),
            st.integers(-2, 2),
            st.integers(-4, 4),
        ),
        max_size=6,
    ),
)
def test_ring_axioms(ta, tb):
    a = ZERO
    for e, f, g, c in ta:
        a = a + mono(c, e, f, g)
    b = ZERO
    for e, f, g, c in tb:
        b = b + mono(c, e, f, g)
    assert a * b == b * a
    assert a + b == b + a
    assert a - a == ZERO
    assert (a + b) * b == a * b + b * b


# -- cached evaluation against a table-free reference ---------------------------

_exponents = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))
_polys = st.dictionaries(_exponents, st.integers(-4, 4).filter(bool), max_size=5).map(
    RingElem
)
_atoms = st.one_of(
    st.integers(-4, 6).filter(bool).map(qint),
    st.integers(0, 4).map(angle),
    st.integers(-3, 3).map(qshift),
    st.just(qdiff()),
    _polys.filter(bool),
)
_coords = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-3, 2)]
)
_points = st.tuples(_coords, _coords, _coords)


def _ref_poly(a: RingElem, q, Q, Q0) -> Fraction:
    """Term-by-term Fraction-power sum, with no SpecPoint tables."""
    return sum((c * q**e * Q**f * Q0**g for (e, f, g), c in a.terms.items()), Fraction(0))


def _ref_quotient(prefactor: Fraction, num_atoms, den_atoms, coords):
    """prefactor * prod(num atoms) / prod(den atoms), or None if an atom
    vanishes (atom_eval raises for numerator and denominator atoms alike)."""
    values = [_ref_poly(a, *coords) for a in list(num_atoms) + list(den_atoms)]
    if not all(values):
        return None
    out = prefactor
    for v in values[: len(num_atoms)]:
        out *= v
    for v in values[len(num_atoms):]:
        out /= v
    return out


def _assert_evaluates_to(value, p, expected):
    if expected is None:
        with pytest.raises(ZeroDenominator):
            value.evaluate(p)
    else:
        got = value.evaluate(p)
        assert isinstance(got, Fraction) and got == expected


@settings(max_examples=150, deadline=None)
@given(
    _polys,
    st.lists(_atoms, max_size=3),
    st.lists(_atoms, max_size=3),
    st.integers(-3, 3),
    st.integers(-3, 3),
    _points,
    _points,
)
def test_cached_evaluation_matches_reference(num, num_atoms, den_atoms, a, b, pt1, pt2):
    from tbtl.ground_state import FactorizedScalar

    ratio = RatioElem(num, den_atoms)
    fs = FactorizedScalar(a, b, list(num_atoms), list(den_atoms))
    for coords in (pt1, pt2):
        p = SpecPoint(*coords)
        for _ in range(2):  # the second pass reads the point's tables
            _assert_evaluates_to(num, p, _ref_poly(num, *coords))
            _assert_evaluates_to(
                ratio, p, _ref_quotient(_ref_poly(num, *coords), (), den_atoms, coords)
            )
            prefactor = coords[0] ** a * coords[1] ** b
            _assert_evaluates_to(fs, p, _ref_quotient(prefactor, num_atoms, den_atoms, coords))


# -- monomial products ----------------------------------------------------------

_monomials = st.tuples(_exponents, st.integers(-4, 4).filter(bool)).map(
    lambda t: RingElem({t[0]: t[1]})
)


def _convolution(a: RingElem, b: RingElem) -> dict:
    out: dict = {}
    for (e1, f1, g1), c1 in a.terms.items():
        for (e2, f2, g2), c2 in b.terms.items():
            m = (e1 + e2, f1 + f2, g1 + g2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(_monomials, st.one_of(_polys, _monomials))
@example(ONE, mono(3, 1, -1) + mono(-2, 0, 2))
@example(ONE, ONE)
def test_monomial_product_is_convolution(m, a):
    for product in (m * a, a * m):
        assert product.terms == _convolution(m, a)
        assert all(product.terms.values())
        assert product.terms is not m.terms and product.terms is not a.terms


# -- products by Kronecker substitution ---------------------------------------


@st.composite
def _kernel_factors(draw, multivariate=st.booleans()):
    """1 to 14 terms with negative exponents allowed: in q alone or in q, Q
    and Q0; the q-exponents of one parity or mixed; coefficients small, or
    wide enough that products need digits beyond 64 bits."""
    parity = draw(st.sampled_from([None, 0, 1]))
    if parity is None:
        qs = st.integers(-10, 9)
    else:
        qs = st.integers(-5, 4).map(lambda k: 2 * k + parity)
    others = st.integers(-2, 2) if draw(multivariate) else st.just(0)
    if draw(st.sampled_from(["small", "small", "wide"])) == "small":
        coefficients = st.integers(-9, 9).filter(bool)
    else:
        coefficients = st.integers(-(2**66), 2**66).filter(bool)
    keys = st.tuples(qs, others, others)
    return RingElem(draw(st.dictionaries(keys, coefficients, min_size=1, max_size=14)))


def _packed(a: RingElem, b: RingElem) -> dict:
    """The terms of a * b from the Kronecker kernel, whatever the box's size."""
    with mock.patch.object(ring, "_KRONECKER_MAX_FILL", math.inf):
        return ring._kronecker_product(a.terms, b.terms)


@settings(max_examples=300, deadline=None)
@given(_kernel_factors(), _kernel_factors())
@example(  # q-exponents 2 apart on both sides
    RingElem({(2 * i - 7, 0, 0): i + 1 for i in range(8)}),
    RingElem({(2 * i - 9, 0, 0): 1 - 2 * i for i in range(10)}),
)
@example(  # alternating signs: every other coefficient of the product is 0
    RingElem({(2 * i, 0, 0): 1 for i in range(8)}),
    RingElem({(2 * i, 0, 0): (-1) ** i for i in range(8)}),
)
@example(  # |a|_1 |b|_1 just below 2^63: 64-bit digits near -2^62
    RingElem({(0, 0, 0): 2**59 - 1, **{(i, 0, 0): 1 for i in range(1, 8)}}),
    RingElem({(0, 0, 0): -7, **{(i, 0, 0): -1 for i in range(1, 8)}}),
)
def test_kronecker_product_is_convolution(a, b):
    expected = _convolution(a, b)
    assert _packed(a, b) == expected
    assert _packed(b, a) == expected
    assert (a * b).terms == (b * a).terms == expected


@settings(max_examples=100, deadline=None)
@given(_kernel_factors())
def test_kronecker_product_cancels(u):
    # (1 + q^2)(1 - q^2 + q^4 - ... - q^14) = 1 - q^16: all the middle
    # coefficients of the packed product cancel to 0
    a = u * (ONE + mono(1, 2))
    b = RingElem({(2 * i, 0, 0): (-1) ** i for i in range(8)})
    expected = _convolution(u, ONE - mono(1, 16))
    assert _packed(a, b) == _convolution(a, b) == expected
    assert (a * b).terms == expected


def test_kronecker_product_digit_widths(monkeypatch):
    # |a|_1 |b|_1 = 64 c: below 2^63 the digits are 64-bit, from 2^63 on wider
    wide = []
    digits_wide = ring._digits_wide

    def spy(*args):
        wide.append(args[-1])  # the digit width in bits
        return digits_wide(*args)

    monkeypatch.setattr(ring, "_digits_wide", spy)
    for c, widths in ((2**57 - 1, []), (2**57, [65]), (-(2**63), [71])):
        a = RingElem({(i, 1, -1): c for i in range(8)})
        b = RingElem({(-2 * i, 0, 0): 1 for i in range(8)})
        wide.clear()
        assert (a * b).terms == _convolution(a, b)
        assert wide == widths


def test_sparse_box_is_multiplied_term_by_term():
    a = RingElem({(10**6 * i, 0, 0): 1 for i in range(8)})
    b = RingElem({(-(10**6) * i, i, 0): 1 for i in range(8)})
    assert ring._kronecker_product(a.terms, b.terms) is None
    assert (a * b).terms == _convolution(a, b)


# -- ratio equality -------------------------------------------------------------


def _cross_multiplied_eq(a: RatioElem, b: RatioElem) -> bool:
    """a == b by plain cross-multiplication over the full denominators."""
    lhs, rhs = a.num, b.num
    for atom in b.den:
        lhs = lhs * atom
    for atom in a.den:
        rhs = rhs * atom
    return lhs == rhs


@settings(max_examples=200, deadline=None)
@given(
    _polys,
    _polys,
    st.lists(_atoms, max_size=3),
    st.lists(_atoms, max_size=2),
    st.lists(_atoms, max_size=2),
    st.lists(_atoms, max_size=2),
)
def test_ratio_eq_matches_cross_multiplication(x, y, shared, only_a, only_b, extra):
    a = RatioElem(x, shared + only_a)
    b = RatioElem(y, shared + only_b)
    assert (a == b) == _cross_multiplied_eq(a, b)
    assert (b == a) == (a == b)
    # the same value written over a larger denominator multiset
    num = x
    for atom in extra:
        num = num * atom
    widened = RatioElem(num, shared + only_a + extra)
    assert widened == a and a == widened
    assert _cross_multiplied_eq(widened, a)
    # and a different value over it
    shifted = RatioElem(num + mono(1, 9), widened.den)
    assert shifted != a and not _cross_multiplied_eq(shifted, a)


# -- substitutions against evaluation -------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_polys, st.lists(_atoms, max_size=3), st.integers(-3, 3), st.integers(1, 6), _points)
def test_substitution_matches_evaluation(num, den_atoms, M, N, coords):
    """An image evaluated at (q, Q, Q0) equals the original evaluated where
    the substitution sends that point."""
    q, Q, Q0 = coords
    ratio = RatioElem(num, den_atoms)
    inverse = SpecPoint(1 / q, 1 / Q, 1 / Q0)
    cases = [
        (num.subst_Q, ratio.subst_Q, M, SpecPoint(q, q**M, Q0)),
        (num.subst_Q0, ratio.subst_Q0, N, SpecPoint(q, Q, q ** (1 - N) / Q)),
        (num.remap, ratio.remap, lambda e, f, g: (-e, -f, -g), inverse),
    ]
    p = SpecPoint(q, Q, Q0)
    assert num.bar().evaluate(p) == num.evaluate(inverse)
    for on_ring, on_ratio, arg, original in cases:
        assert on_ring(arg).evaluate(p) == num.evaluate(original)
        try:
            expected = ratio.evaluate(original)
        except ZeroDenominator:
            continue  # an atom vanishes at the original point
        assert on_ratio(arg).evaluate(p) == expected


# -- owned terms and the cached hash --------------------------------------------


def test_constructor_copies_terms():
    for hash_first in (False, True):
        d = {(1, 0, 0): 2, (0, 0, 1): -1}
        a = RingElem(d)
        h = hash(a) if hash_first else None
        d[(1, 0, 0)] = 5
        d[(2, 1, 0)] = 1
        del d[(0, 0, 1)]
        expected = mono(2, 1) + mono(-1, 0, 0, 1)
        assert a == expected and a.terms == {(1, 0, 0): 2, (0, 0, 1): -1}
        assert hash(a) == hash(expected)
        if hash_first:
            assert hash(a) == h


def test_expanded_product_hashes_as_typed_terms():
    # (q + Q)(q - Q0) = q^2 - q Q0 + q Q - Q Q0
    product = (mono(1, 1) + mono(1, 0, 1)) * (mono(1, 1) - mono(1, 0, 0, 1))
    typed = RingElem({(0, 1, 1): -1, (1, 1, 0): 1, (1, 0, 1): -1, (2, 0, 0): 1})
    assert hash(typed) == hash(product) and typed == product
    assert {product: "x"}[typed] == "x"


@settings(max_examples=150, deadline=None)
@given(_polys, _polys, st.randoms(use_true_random=False))
def test_equal_values_hash_equal(a, b, rnd):
    items = list(a.terms.items())
    rnd.shuffle(items)
    shuffled = RingElem(dict(items))
    ab, ba = a * b, b * a
    typed = RingElem(dict(sorted(ab.terms.items(), reverse=True)))
    assert shuffled == a and ab == ba == typed
    # each hash is computed once and kept, so hash in a drawn order first
    values = [a, shuffled, ab, ba, typed]
    for v in rnd.sample(values, len(values)):
        hash(v)
    assert hash(a) == hash(shuffled)
    assert hash(ab) == hash(ba) == hash(typed)


# -- ratio addition ---------------------------------------------------------------

# A few atoms drawn with repetition, including three objects for the one
# value [2] = <1>: equal atoms built apart must count as one atom.
_repeating_atoms = st.lists(
    st.sampled_from(
        [qint(2), qint(3), qdiff(), angle(1), qshift(-1), RingElem(qint(2).terms)]
    ),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _repeating_atoms, _repeating_atoms, _repeating_atoms)
def test_ratio_add_matches_cross_multiplication(x, y, shared, only_a, only_b):
    a = RatioElem(x, shared + only_a)
    b = RatioElem(y, shared + only_b)
    # the reference sum over the full product of both denominators
    lhs, rhs = x, y
    for atom in b.den:
        lhs = lhs * atom
    for atom in a.den:
        rhs = rhs * atom
    reference = RatioElem(lhs + rhs, a.den + b.den)
    for total in (a + b, b + a):
        assert _cross_multiplied_eq(total, reference)
        # the sum is written over the least common multiset of atoms
        assert Counter(total.den) == Counter(a.den) | Counter(b.den)


def test_one_atom_per_value():
    # [2] from qint, from angle and built term by term is one atom
    two = RingElem({(1, 0, 0): 1, (-1, 0, 0): 1})
    for atom in (qint(2), angle(1), two):
        total = RatioElem(ONE, (qint(2),)) + RatioElem(ONE, (atom,))
        assert total.den == (qint(2),) and total.num == RingElem.const(2)
    # the (q - q^-1) of [Q; 1] and of its image under the identity map
    same = qQ_bracket(1).remap(lambda e, f, g: (e, f, g))
    assert same.den[0] is not qdiff()
    assert (qQ_bracket(1) + same).den == (qdiff(),)


def test_named_atoms_are_shared():
    # one object per factor; a point's atom table is keyed by the atom itself
    for make, arg in ((qint, 3), (angle, 2), (qshift, -1), (dangle, 1)):
        assert make(arg) is make(arg)
    assert qdiff() is qdiff()
    p = SpecPoint(2, 3)
    assert atom_eval(angle(2), p) == Fraction(17, 4) and list(p._atoms) == [angle(2)]
    with pytest.raises(ZeroDenominator, match=re.escape(f"atom {qdiff().to_text()} vanishes")):
        atom_eval(qdiff(), SpecPoint(1, 2))
