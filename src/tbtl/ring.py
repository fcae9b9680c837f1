"""Exact Laurent-polynomial arithmetic in q, Q, Q0 and structured fractions.

Elements of Z[q^{+-1}, Q^{+-1}, Q0^{+-1}] are dicts mapping exponent
triples to integer coefficients.  Fractions keep their denominators as
multisets of nonzero RingElem atoms (quantum integers, angle brackets, Qq^i
shifts, or any other factor) and cancel them by exact division only; there
is no general multivariate gcd.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import inf
from types import MappingProxyType

# A monomial is an exponent triple (eq, eQ, eQ0).
Monomial = tuple[int, int, int]


class NotDivisible(Exception):
    """Raised by exact_div when the quotient does not exist."""


class ZeroDenominator(Exception):
    """Raised when a denominator atom evaluates or substitutes to zero."""


def _refuse(self, *_):
    """__setattr__ and __delattr__ of a read-only value."""
    raise AttributeError(f"{type(self).__name__} is read-only")


class RingElem:
    """Laurent polynomial over Z in q, Q, Q0 with canonical term storage.

    A value owns its terms: the constructor copies the dict it is given, and
    ``terms`` is a read-only view of the copy, so a value shared through a
    cache cannot be changed by one caller.  Assigning or deleting an
    attribute raises AttributeError.  The hash and, for a denominator atom,
    the sorted-term key are computed on first use and kept.
    """

    __slots__ = ("terms", "_hash", "_key")

    def __init__(self, terms=None):
        _set_terms(self, MappingProxyType(dict(terms) if terms else {}))

    __setattr__ = __delattr__ = _refuse

    @staticmethod
    def mono(c: int, eq: int = 0, eQ: int = 0, eQ0: int = 0) -> "RingElem":
        """The monomial c q^eq Q^eQ Q0^eQ0; mono(c) is the constant c."""
        return RingElem({(eq, eQ, eQ0): c} if c else {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RingElem") -> "RingElem":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = self.terms.copy()
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return RingElem(out)

    def __neg__(self) -> "RingElem":
        return RingElem({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "RingElem") -> "RingElem":
        if not other.terms:
            return self
        out = self.terms.copy()
        for m, c in other.terms.items():
            v = out.get(m, 0) - c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return RingElem(out)

    def __mul__(self, other: "RingElem") -> "RingElem":
        if not self.terms or not other.terms:
            return RingElem({})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # A monomial times b shifts every exponent of b: no two terms
            # merge and no nonzero product of integers vanishes.
            ((e1, f1, g1), c1), = a.items()
            return RingElem(
                {(e1 + e2, f1 + f2, g1 + g2): c1 * c2 for (e2, f2, g2), c2 in b.items()}
            )
        out = _kronecker_product(a, b) if len(a) * len(b) >= _KRONECKER_MIN_PAIRS else None
        if out is None:
            out = {}
            for (e1, f1, g1), c1 in a.items():
                for (e2, f2, g2), c2 in b.items():
                    m = (e1 + e2, f1 + f2, g1 + g2)
                    v = out.get(m, 0) + c1 * c2
                    if v:
                        out[m] = v
                    else:
                        del out[m]
        return RingElem(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingElem) and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", h := hash(frozenset(self.terms.items())))
            return h

    # -- structure -----------------------------------------------------

    def leading(self) -> tuple[Monomial, int]:
        """Lex-largest term; the polynomial must be nonzero."""
        m = max(self.terms)
        return m, self.terms[m]

    def remap(self, fn) -> "RingElem":
        """The substitution that sends q^e Q^f Q0^g to the monomial with
        exponents fn(e, f, g); terms that land together are merged."""
        out: dict[Monomial, int] = {}
        for (e, f, g), c in self.terms.items():
            m = fn(e, f, g)
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
        return RingElem(out)

    def bar(self) -> "RingElem":
        """Involution q -> 1/q, Q -> 1/Q, Q0 -> 1/Q0."""
        return self.remap(lambda e, f, g: (-e, -f, -g))

    def evaluate(self, p: "SpecPoint") -> Fraction:
        monomial = p.monomial
        total = Fraction(0)
        for m, c in self.terms.items():
            total += c * monomial(m)
        return total

    def max_q_degree(self) -> int:
        return max(e for (e, _, _) in self.terms)

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (e, f, g), c in sorted(self.terms.items()):
            factors = []
            if c != 1 or (e == 0 and f == 0 and g == 0):
                factors.append(str(c) if c != -1 else "-1")
            for name, expo in (("q", e), ("Q", f), ("Q0", g)):
                if expo:
                    factors.append(f"{name}^{expo}" if expo != 1 else name)
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"RingElem({self.to_text()})"


# The constructors write through the slot descriptors, which bypass _refuse
# at about half the cost of object.__setattr__ on this hot path.
_set_terms = RingElem.terms.__set__
ZERO = RingElem()
ONE = RingElem.mono(1)


# -- products by Kronecker substitution ---------------------------------------
# Number the slots of the product's exponent box so that the slot of a
# product of monomials is the sum of its factors' slots.  A factor packed as
# one int with one signed digit per slot then multiplies as an integer, and
# the digits of the integer product are the coefficients of the polynomial
# product (Schonhage 1982; Fateman 2010).  No coefficient of a * b exceeds
# |a|_1 |b|_1 in absolute value, so while that is below 2^63 the 64-bit
# digits never carry; a larger product is left to the schoolbook loop.

# Below this many term pairs the schoolbook loop is cheaper.
_KRONECKER_MIN_PAIRS = 64
# A box with more slots than this many times the term pairs is mostly empty
# and is left to the schoolbook loop.
_KRONECKER_MAX_FILL = 4
_BYTE_ORDER = sys.byteorder
_HALF = 1 << 63  # half the range of a 64-bit digit
_HALF_DIGIT = _HALF.to_bytes(8, _BYTE_ORDER)


def _kronecker_product(a: dict, b: dict) -> dict | None:
    """The terms of a * b, or None when the product's box is too sparse or
    its coefficients may not fit in 64-bit digits."""
    ae, af, ag = zip(*a)
    be, bf, bg = zip(*b)
    ea, fa, ga, eb, fb, gb = min(ae), min(af), min(ag), min(be), min(bf), min(bg)
    # Quantum integers step by 2 in q: when the q-exponents of each factor
    # share one parity, so do the product's, and only every other q is used.
    step = 2 if len({e & 1 for e in ae}) == 1 == len({e & 1 for e in be}) else 1
    nf = max(af) - fa + max(bf) - fb + 1
    ng = max(ag) - ga + max(bg) - gb + 1
    slots_a = _slots(a, ea, fa, ga, step, nf, ng)
    slots_b = _slots(b, eb, fb, gb, step, nf, ng)
    n = max(slots_a) + max(slots_b) + 1
    if n > _KRONECKER_MAX_FILL * len(a) * len(b):
        return None
    if sum(map(abs, a.values())) * sum(map(abs, b.values())) >= _HALF:
        return None
    digits = _digits_64(a, slots_a, b, slots_b, n)
    qs = range(ea + eb, ea + eb + step * n, step)
    if nf == ng == 1:
        f, g = fa + fb, ga + gb
        return {(e, f, g): c for e, c in zip(qs, digits) if c}
    monomials = product(qs, range(fa + fb, fa + fb + nf), range(ga + gb, ga + gb + ng))
    return {m: c for m, c in zip(monomials, digits) if c}


def _slots(terms: dict, e0, f0, g0, step, nf, ng) -> list[int]:
    """The slot of each term, counted from the factor's lowest corner with
    the product's strides: q slowest in steps of step, then Q, then Q0."""
    return [((e - e0) // step * nf + f - f0) * ng + g - g0 for e, f, g in terms]


def _digits_64(a: dict, slots_a, b: dict, slots_b, n: int):
    """The n signed 64-bit digits of the packed product.

    Each factor is packed with half a digit's range added to every digit,
    which keeps the digits nonnegative, and the int of those halves is taken
    off again.  Adding it to the product and xoring it back out leaves every
    digit in two's complement."""
    offset = int.from_bytes(_HALF_DIGIT * n, _BYTE_ORDER)
    packed = 1
    for terms, slots in ((a, slots_a), (b, slots_b)):
        digits = array("Q", _HALF_DIGIT * (max(slots) + 1))
        for i, c in zip(slots, terms.values()):
            digits[i] = c + _HALF
        packed *= int.from_bytes(digits, _BYTE_ORDER) - (offset >> 64 * (n - len(digits)))
    return memoryview(((packed + offset) ^ offset).to_bytes(8 * n, _BYTE_ORDER)).cast("q")


# -- the substitutions, as exponent maps for remap ---------------------------


def _Q_to_q_power(M: int):
    """Q -> q^M."""
    return lambda e, f, g: (e + M * f, 0, g)


def _integrable(N: int):
    """Q0 -> q^{1-N} Q^{-1}."""
    return lambda e, f, g: (e + (1 - N) * g, f - g, 0)


def is_positivity_class(a: RingElem, variables: str) -> bool:
    """Membership in N[...] classes named by the paper.

    variables is one of 'q' (= N[q,1/q]), 'qQ+' (= N[q,1/q,Q]) or
    'qQ' (= N[q,1/q,Q,1/Q]); Q0 never appears in these claims.
    """
    bounds = {"q": (0, 0), "qQ+": (0, inf), "qQ": (-inf, inf)}.get(variables)
    if bounds is None:
        raise ValueError(variables)
    lo, hi = bounds
    return all(c > 0 and lo <= f <= hi and g == 0 for (_, f, g), c in a.terms.items())


# -- named elements ------------------------------------------------------


@lru_cache(maxsize=None)
def qint(n: int) -> RingElem:
    """Quantum integer [n]; [-n] = -[n]."""
    if n == 0:
        return RingElem({})
    if n < 0:
        return RingElem({(n + 1 + 2 * i, 0, 0): -1 for i in range(-n)})
    return RingElem({(n - 1 - 2 * i, 0, 0): 1 for i in range(n)})


@lru_cache(maxsize=None)
def qfact(n: int) -> RingElem:
    if n < 0:
        raise ValueError("negative factorial")
    if n == 0:
        return ONE
    return qfact(n - 1) * qint(n)


def qbinom(n: int, m: int) -> RingElem:
    if m < 0 or m > n:
        return ZERO
    num = qfact(n)
    den = qfact(n - m) * qfact(m)
    return exact_div(num, den)


@lru_cache(maxsize=None)
def angle(k: int) -> RingElem:
    """<k> = q^k + q^{-k}; <0> = 2."""
    if k == 0:
        return RingElem.mono(2)
    return RingElem({(k, 0, 0): 1, (-k, 0, 0): 1})


@lru_cache(maxsize=None)
def qshift(i: int) -> RingElem:
    """Q q^i + Q^{-1} q^{-i}."""
    return RingElem({(i, 1, 0): 1, (-i, -1, 0): 1})


@lru_cache(maxsize=None)
def qdiff() -> RingElem:
    """q - q^{-1}."""
    return RingElem({(1, 0, 0): 1, (-1, 0, 0): -1})


# -- exact division --------------------------------------------------------


def exact_div(a: RingElem, b: RingElem) -> RingElem:
    """Quotient a / b when it exists; raises NotDivisible otherwise.

    Long division on one mutable remainder: each quotient term c m, taken
    from the lex-leading terms, subtracts c m b from the remainder's term
    dict in place (after Johnson 1974, Monagan and Pearce 2011), so no
    intermediate polynomial is built."""
    if not b.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a.terms:
        return ZERO
    lead_b, cb = b.leading()
    b_terms = b.terms.items()
    rem = dict(a.terms)
    quot: dict[Monomial, int] = {}
    # A true quotient's support fits in the Minkowski difference of the
    # exponent boxes, so its term count is bounded by the box volume of a;
    # anything running longer cannot be an exact division.
    limit = 2
    for axis in range(3):
        exps = [m[axis] for m in a.terms]
        limit *= max(exps) - min(exps) + 1
    for _ in range(limit):
        if not rem:
            return RingElem(quot)
        lead_r = max(rem)
        cr = rem[lead_r]
        if cr % cb:
            raise NotDivisible(f"coefficient {cr} not divisible by {cb}")
        # the leading term of the remainder falls at each step, so no
        # quotient monomial comes twice
        e, f, g = lead_r[0] - lead_b[0], lead_r[1] - lead_b[1], lead_r[2] - lead_b[2]
        c = quot[e, f, g] = cr // cb
        for (e2, f2, g2), k in b_terms:
            m = (e + e2, f + f2, g + g2)
            x = rem.get(m, 0) - c * k
            if x:
                rem[m] = x
            else:
                del rem[m]
    raise NotDivisible("no exact quotient found")


# -- specialization ---------------------------------------------------------


class SpecPoint:
    """Assignment of nonzero rationals to q, Q, Q0.

    A point memoizes every monomial value q^e Q^f Q0^g and every atom value
    it computes, for its own lifetime.  The tables assume fixed coordinates,
    so a point is read-only after construction.  Reuse one point across many
    evaluations at the same coordinates.
    """

    __slots__ = ("q", "Q", "Q0", "_monomials", "_atoms")

    def __init__(self, q, Q, Q0=1):
        q, Q, Q0 = Fraction(q), Fraction(Q), Fraction(Q0)
        if not (q and Q and Q0):
            raise ValueError("spec point values must be nonzero")
        for name, value in (("q", q), ("Q", Q), ("Q0", Q0), ("_monomials", {}), ("_atoms", {})):
            object.__setattr__(self, name, value)

    __setattr__ = __delattr__ = _refuse

    def monomial(self, m: Monomial) -> Fraction:
        """q^e Q^f Q0^g for the exponent triple m = (e, f, g)."""
        v = self._monomials.get(m)
        if v is None:
            e, f, g = m
            v = self._monomials[m] = self.q**e * self.Q**f * self.Q0**g
        return v

    def __repr__(self):
        return f"SpecPoint(q={self.q}, Q={self.Q}, Q0={self.Q0})"


# -- denominator atoms -------------------------------------------------------
# An atom is a nonzero RingElem.  Equal atoms are one atom, however they were
# built; the cached constructors (qint, angle, qshift, qdiff) share one object
# per factor, so a point's atom table and the multiset counts mostly match by
# identity.  An atom's sort key, its sorted terms, is computed once.


def atom_eval(atom: RingElem, p: SpecPoint) -> Fraction:
    """Value of an atom at p, from p's atom table; raises ZeroDenominator on
    every lookup of an atom that vanishes there."""
    v = p._atoms.get(atom)
    if v is None:
        v = p._atoms[atom] = atom.evaluate(p)
    if not v:
        raise ZeroDenominator(f"atom {atom.to_text()} vanishes at {p}")
    return v


def _atom_key(atom: RingElem):
    try:
        return atom._key
    except AttributeError:
        object.__setattr__(atom, "_key", key := tuple(sorted(atom.terms.items())))
        return key


def _merge_dens(a: tuple, b: tuple):
    """Least common multiset of atoms; returns (union, a_missing, b_missing).

    a's atoms are counted in one dict; each atom of b uses up one of them or
    is missing from a.  What is left of a's count is missing from b."""
    left: dict = {}
    for atom in a:
        left[atom] = left.get(atom, 0) + 1
    a_missing = []
    for atom in b:
        n = left.get(atom)
        if n:
            left[atom] = n - 1
        else:
            a_missing.append(atom)
    b_missing = [atom for atom, n in left.items() for _ in range(n)]
    return a + tuple(a_missing), a_missing, b_missing


def _lift(num: RingElem, atoms) -> RingElem:
    """num times each atom, multiplied in one at a time."""
    for atom in atoms:
        num = num * atom
    return num


class RatioElem:
    """num / product-of-atoms; reduced() cancels the atoms that divide.
    Read-only, as RingElem is."""

    __slots__ = ("num", "den")

    def __init__(self, num: RingElem, den=()):
        if den:
            den = tuple(sorted(den, key=_atom_key))
            # the zero polynomial's key, (), sorts before every other atom's
            if not den[0].terms:
                raise ZeroDenominator(f"a denominator atom of ({num.to_text()}) is 0")
        _set_num(self, num)
        _set_den(self, den or ())

    __setattr__ = __delattr__ = _refuse

    def reduced(self) -> "RatioElem":
        """The same value with each atom that divides the numerator exactly
        divided out, in the stored atom order."""
        num, keep = self.num, []
        for atom in self.den:
            try:
                num = exact_div(num, atom)
            except NotDivisible:
                keep.append(atom)
        return RatioElem(num, keep)

    # -- conversions ----------------------------------------------------

    @staticmethod
    def rational(c) -> "RatioElem":
        """The rational constant c (an int or a Fraction), its denominator
        kept as one atom."""
        c = Fraction(c)
        den = (RingElem.mono(c.denominator),) if c.denominator != 1 else ()
        return RatioElem(RingElem.mono(c.numerator), den)

    def __bool__(self):
        return bool(self.num.terms)

    def as_ring(self) -> RingElem:
        """The element as a Laurent polynomial; raises NotDivisible unless
        every atom divides out."""
        r = self.reduced()
        if r.den:
            raise NotDivisible(f"{r.to_text()} is not a Laurent polynomial")
        return r.num

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RatioElem") -> "RatioElem":
        # a zero side adds nothing, not even its atoms to the denominator
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if not self.den and not other.den:
            return RatioElem(self.num + other.num)
        if self.den == other.den:
            return RatioElem(self.num + other.num, self.den)
        common, a_missing, b_missing = _merge_dens(self.den, other.den)
        return RatioElem(_lift(self.num, a_missing) + _lift(other.num, b_missing), common)

    def __neg__(self) -> "RatioElem":
        return RatioElem(-self.num, self.den)

    def __sub__(self, other: "RatioElem") -> "RatioElem":
        return self + (-other)

    def __mul__(self, other: "RatioElem") -> "RatioElem":
        if not self.num.terms or not other.num.terms:
            return RatioElem(ZERO)
        return RatioElem(self.num * other.num, self.den + other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatioElem):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        # a / (C Da) == b / (C Db) iff a Db == b Da: every atom is a nonzero
        # polynomial, so the shared atoms C cancel exactly and only
        # the atoms missing on each side are multiplied in.
        _, a_missing, b_missing = _merge_dens(self.den, other.den)
        return _lift(self.num, a_missing) == _lift(other.num, b_missing)

    # Equality cross-multiplies, so equal values may carry different
    # denominators; no hash of (num, den) can agree with it.
    __hash__ = None

    # -- maps -----------------------------------------------------------

    def remap(self, fn) -> "RatioElem":
        """RingElem.remap on the numerator and on every atom; raises
        ZeroDenominator if an atom maps to 0."""
        return RatioElem(self.num.remap(fn), [atom.remap(fn) for atom in self.den])

    def subst_Q(self, M: int) -> "RatioElem":
        """Substitute Q -> q^M, then cancel the atoms that divide."""
        return self.remap(_Q_to_q_power(M)).reduced()

    def subst_Q0(self, N: int) -> "RatioElem":
        """Substitute Q0 -> q^{1-N} Q^{-1}, then cancel the atoms that divide."""
        return self.remap(_integrable(N)).reduced()

    def evaluate(self, p: SpecPoint) -> Fraction:
        den = Fraction(1)
        for atom in self.den:
            den *= atom_eval(atom, p)
        return self.num.evaluate(p) / den

    def to_text(self) -> str:
        if not self.den:
            return self.num.to_text()
        dens = ", ".join(a.to_text() for a in self.den)
        return f"({self.num.to_text()}) / ({dens})"

    def __repr__(self):
        return f"RatioElem({self.to_text()})"


_set_num, _set_den = RatioElem.num.__set__, RatioElem.den.__set__
R_ZERO = RatioElem(ZERO)
R_ONE = RatioElem(ONE)


def qQ_bracket(n: int) -> RatioElem:
    """[Q; n] = (Q q^n - Q^{-1} q^{-n}) / (q - q^{-1})."""
    num = RingElem({(n, 1, 0): 1, (-n, -1, 0): -1})
    return RatioElem(num, (qdiff(),))
