"""Exact Laurent-polynomial arithmetic in q, Q, Q0 and structured fractions.

Elements of Z[q^{+-1}, Q^{+-1}, Q0^{+-1}] are dicts mapping exponent
triples to integer coefficients.  Fractions keep their denominators as
multisets of nonzero RingElem atoms (quantum integers, angle brackets, Qq^i
shifts, or any other factor) and cancel them by exact division only; there
is no general multivariate gcd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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
