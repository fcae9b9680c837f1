"""Differential tests of the Laurent-polynomial ring against sympy.

Each operation of ``tbtl.ring`` is compared with the same operation on the
sympy expression of its arguments: products, sums and exact quotients of
``RingElem``s, equality and sums of ``RatioElem``s whose denominators repeat
atoms, and the bar map and the two substitutions.  Skipped without sympy.
"""

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from tbtl.ring import (  # noqa: E402
    NotDivisible,
    RatioElem,
    RingElem,
    ZeroDenominator,
    angle,
    exact_div,
    qdiff,
    qint,
    qshift,
)

q, Q, Q0 = sympy.symbols("q Q Q0")

_exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1))
_polys = st.dictionaries(_exponents, st.integers(-3, 3).filter(bool), max_size=4).map(
    RingElem
)
_nonzero = _polys.filter(bool)
# Atoms drawn from a small set, so that denominators repeat them; [2] = <1>
# comes as three objects built apart.
_atoms = st.lists(
    st.sampled_from(
        [qint(2), qint(3), qdiff(), angle(1), qshift(1), RingElem(qint(2).terms)]
    ),
    max_size=3,
)


def _sym(a: RingElem):
    return sympy.Add(*(c * q**e * Q**f * Q0**g for (e, f, g), c in a.terms.items()))


def _sym_ratio(r: RatioElem):
    den = sympy.Mul(*(_sym(atom) for atom in r.den))
    return _sym(r.num) / den


def _same_poly(a: RingElem, expr) -> bool:
    return sympy.expand(_sym(a) - expr) == 0


def _same_function(x, y) -> bool:
    return sympy.cancel(sympy.together(x - y)) == 0


def _monomial_shift(a: RingElem):
    """The monomial that makes every exponent of a nonnegative, and no lower."""
    return sympy.Mul(*(v ** -min(m[i] for m in a.terms) for i, v in enumerate((q, Q, Q0))))


@settings(max_examples=100, deadline=None)
@given(_polys, _polys)
def test_mul_and_add(a, b):
    assert _same_poly(a * b, _sym(a) * _sym(b))
    assert _same_poly(a + b, _sym(a) + _sym(b))
    assert _same_poly(a - b, _sym(a) - _sym(b))


@settings(max_examples=100, deadline=None)
@given(_polys, _nonzero, _polys)
def test_exact_div(a, b, c):
    """exact_div(n, b) answers exactly when sympy divides n by b with no
    remainder and an integral quotient, and then gives sympy's quotient."""
    # b times a monomial unit is a polynomial with no monomial factor, so it
    # divides n (times a unit) in the Laurent ring exactly when it divides
    # it in the polynomial ring.
    ub = _monomial_shift(b)
    for n in (a, b * c):
        if not n:
            assert exact_div(n, b) == n
            continue
        un = _monomial_shift(n)
        quot, rem = sympy.div(
            sympy.expand(_sym(n) * un), sympy.expand(_sym(b) * ub), q, Q, Q0, domain="QQ"
        )
        quot = sympy.Poly(quot, q, Q, Q0)
        divisible = rem == 0 and all(x.is_integer for x in quot.coeffs())
        try:
            got = exact_div(n, b)
        except NotDivisible:
            assert not divisible
        else:
            assert divisible
            assert _same_poly(got, quot.as_expr() * ub / un)


@settings(max_examples=100, deadline=None)
@given(_polys, _polys, _atoms, _atoms, _atoms, _atoms)
def test_ratio_eq_and_add(x, y, shared, only_a, only_b, extra):
    a = RatioElem(x, shared + only_a)
    b = RatioElem(y, shared + only_b)
    sa, sb = _sym_ratio(a), _sym_ratio(b)
    assert (a == b) == _same_function(sa, sb)
    assert _same_function(_sym_ratio(a + b), sa + sb)
    # a value over a wider denominator, and a different one over it
    num = x
    for atom in extra:
        num = num * atom
    widened = RatioElem(num, shared + only_a + extra)
    assert widened == a and _same_function(_sym_ratio(widened), sa)
    shifted = RatioElem(num + RingElem.mono(1, 5), widened.den)
    assert shifted != a and not _same_function(_sym_ratio(shifted), sa)


@settings(max_examples=100, deadline=None)
@given(_polys, _atoms, st.integers(-3, 3), st.integers(1, 6))
def test_bar_and_substitutions(num, atoms, M, N):
    r = RatioElem(num, atoms)
    bar = {q: 1 / q, Q: 1 / Q, Q0: 1 / Q0}
    cases = [
        (num.bar(), lambda: r.remap(lambda e, f, g: (-e, -f, -g)), bar),
        (num.subst_Q(M), lambda: r.subst_Q(M), {Q: q**M}),
        (num.subst_Q0(N), lambda: r.subst_Q0(N), {Q0: q ** (1 - N) / Q}),
    ]
    for on_ring, on_ratio, subs in cases:
        assert _same_poly(on_ring, _sym(num).subs(subs, simultaneous=True))
        image_den = [
            sympy.expand(_sym(atom).subs(subs, simultaneous=True)) for atom in r.den
        ]
        try:
            got = on_ratio()
        except ZeroDenominator:
            assert any(d == 0 for d in image_den)
            continue
        assert all(d != 0 for d in image_den)
        expected = _sym(num).subs(subs, simultaneous=True) / sympy.Mul(*image_den)
        assert _same_function(_sym_ratio(got), expected)
