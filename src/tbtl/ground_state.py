"""Closed-form ground-state components for all five bases.

Each component is built as a factored product (monomial prefactor times
quantum-integer and bracket atoms over an atom denominator), which can be
expanded exactly or evaluated at a rational point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .basis import Diagram, build_diagram, enumerate_strings, specialize, standard_to_kl
from .ring import (
    NotDivisible,
    RatioElem,
    RingElem,
    SpecPoint,
    atom_eval,
    atom_expand,
    R_ONE,
    is_positivity_class,
)
from .kl_action import kl_operator
from .coideal import candidate_eigenvalues
from .algebra import generator_names, op_apply, op_eq, standard_operator

_mono = RingElem.mono


class NonPolynomialComponent(Exception):
    """A ground-state component failed to reduce to a Laurent polynomial."""


@dataclass
class FactorizedScalar:
    """q^a Q^b times quantum-type atoms over quantum-type atoms."""

    q_exp: int = 0
    Q_exp: int = 0
    num: list = field(default_factory=list)
    den: list = field(default_factory=list)

    def times_atom(self, atom, inverse: bool = False):
        (self.den if inverse else self.num).append(atom)

    def times_qint(self, n: int, inverse: bool = False):
        if n == 1:
            return
        if n <= 0:
            raise ValueError(f"nonpositive quantum integer [{n}] in a component")
        self.times_atom(("qint", n), inverse)

    def to_ratio(self) -> RatioElem:
        num = _mono(1, self.q_exp, self.Q_exp)
        for atom in self.num:
            num = num * atom_expand(atom)
        return RatioElem(num, tuple(("raw", atom_expand(a)) for a in self.den))

    def as_polynomial(self) -> RingElem:
        r = self.to_ratio()
        try:
            return r.as_ring()
        except NotDivisible as exc:
            raise NonPolynomialComponent(str(exc)) from exc

    def evaluate(self, p: SpecPoint) -> Fraction:
        num = p.monomial((self.q_exp, self.Q_exp, 0))
        for atom in self.num:
            num *= atom_eval(atom, p)
        den = Fraction(1)
        for atom in self.den:
            den *= atom_eval(atom, p)
        return num / den


def _sorted_objects(entries):
    """Sort (position, payload) pairs.  Arcs keyed by left end ascending put
    outer arcs before the arcs nested inside them."""
    return [payload for _, payload in sorted(entries, key=lambda e: e[0])]


def _arc_size(pair) -> int:
    i, j = pair
    if (j - i + 1) % 2:
        raise ValueError(f"odd arc span {pair}")
    return (j - i + 1) // 2


# -- per-family components ---------------------------------------------------


def _psi_standard(s: str) -> FactorizedScalar:
    N = len(s)
    f = FactorizedScalar()
    for site, c in enumerate(s, start=1):
        if c == "+":
            f.q_exp += N - site  # position from the right, minus one
            f.Q_exp += 1
    return f


def _psi_A(D: Diagram) -> FactorizedScalar:
    f = FactorizedScalar()
    d = len(D.ups) + len(D.arcs)
    f.q_exp += d * (d - 1) // 2
    f.Q_exp += d
    objects = (
        [(i, ("up",)) for i in D.ups]
        + [(i, ("down",)) for i in D.downs]
        + [(a[0], ("arc", a)) for a in D.arcs]
    )
    for idx, obj in enumerate(_sorted_objects(objects), start=1):
        if obj[0] in ("down", "arc"):
            f.times_qint(idx)
    for a in D.arcs:
        f.times_qint(_arc_size(a), inverse=True)
    right_objects = [(-i, ("down",)) for i in D.downs] + [
        (-a[0], ("arc", a)) for a in D.arcs
    ]
    for idx, obj in enumerate(_sorted_objects(right_objects), start=1):
        if obj[0] == "down":
            f.times_qint(idx, inverse=True)
    return f


def _psi_BII(D: Diagram) -> FactorizedScalar:
    f = FactorizedScalar()
    e_marks = [i for i, m in D.marks if m == "e"]
    o_marks = [i for i, m in D.marks if m == "o"]
    left = (
        [(i, "up") for i in D.ups]
        + [(i, "e") for i in e_marks]
        + [(a[0], ("arc", a)) for a in D.arcs]
    )
    for idx, obj in enumerate(_sorted_objects(left), start=1):
        if obj != "up":
            f.times_qint(idx)
    for a in D.arcs:
        f.times_qint(_arc_size(a), inverse=True)
    right_ae = [(-i, "e") for i in e_marks] + [(-a[0], ("arc", a)) for a in D.arcs]
    for idx, obj in enumerate(_sorted_objects(right_ae), start=1):
        if obj == "e":
            f.times_qint(idx, inverse=True)
    right_auo = (
        [(-i, "up") for i in D.ups]
        + [(-i, "o") for i in o_marks]
        + [(-a[0], ("arc", a)) for a in D.arcs]
    )
    for idx, obj in enumerate(_sorted_objects(right_auo), start=1):
        if obj != "o":
            f.times_atom(("qshift", idx - 1))
    return f


def _psi_BIII(D: Diagram) -> FactorizedScalar:
    f = FactorizedScalar()
    circles = [i for i, _ in D.circles]
    left = (
        [(i, "up") for i in D.ups]
        + [(i, "circ") for i in circles]
        + [(a[0], ("arc", a)) for a in D.arcs]
    )
    for idx, obj in enumerate(_sorted_objects(left), start=1):
        if obj != "up":
            f.times_qint(idx)
    for a in D.arcs:
        f.times_qint(_arc_size(a), inverse=True)
    right = [(-i, "circ") for i in circles] + [(-a[0], ("arc", a)) for a in D.arcs]
    for idx, obj in enumerate(_sorted_objects(right), start=1):
        if obj == "circ":
            f.times_qint(idx, inverse=True)
    d = len(D.ups) + len(D.arcs)
    for i in range(1, d + 1):
        f.times_atom(("qshift", i - 1))
    return f


def _psi_BI(D: Diagram) -> FactorizedScalar:
    M = D.M
    N = D.N
    f = FactorizedScalar()
    S = list(D.arcs)
    T = list(D.dashed)
    label_site = {p: i for i, p in D.labels}
    if D.star is not None:
        label_site[1] = D.star
    n1 = 1 if D.unpaired_down is not None else 0
    n_up = len(D.ups)
    have_star = D.star is not None
    s_M = label_site.get(M) if M >= 2 else (D.star if M == 1 else None)

    def left_end(pair):
        return pair[0]

    sR = []
    sWp = []
    sW = []
    sL = []
    if s_M is not None:
        sR = [a for a in S if a[0] > s_M]
    if have_star:
        sWp = [a for a in S if D.star < a[0] < s_M]
        if n1:
            boundary = D.unpaired_down
        elif T:
            boundary = min(t[0] for t in T)
        else:
            boundary = None
        if boundary is not None:
            sW = [a for a in S if boundary < a[0] < D.star]
        leftmost_down = boundary if boundary is not None else D.star
        if n_up:
            rightmost_up = max(D.ups)
            sL = [a for a in S if rightmost_up < a[0] < leftmost_down]
        else:
            sL = [a for a in S if a[0] < leftmost_down]

    def outer(a):
        return not any(
            b != a and b[0] < a[0] and a[1] < b[1] for b in S + T
        )

    sRp = [a for a in sR if outer(a)]
    sWp_out = [a for a in sW if outer(a)]
    sLp = [a for a in sL if outer(a)]

    U = {p: i for i, p in D.labels}  # 2..M
    V_size = len(U) + (1 if have_star else 0)

    n2 = n_up + n1 + len(S) + len(T)
    n3 = len(sW) + len(T)
    n4 = len(sWp) + len(sW) + len(T) + M
    n5 = N - len(S) + len(sL) + len(sW) + len(sWp) + len(sR) + M

    # arcs contribute 1/[size]
    for a in S:
        f.times_qint(_arc_size(a), inverse=True)

    # N6
    if V_size == M and n1 == 0:
        f.times_qint(n5)
        f.times_qint(n4, inverse=True)

    # N7
    for p, sp in U.items():
        for a in sRp:
            d1, rem = divmod(a[0] - sp + M - p + 1, 2)
            if rem:
                raise ValueError("parity failure in the boundary distance")
            f.times_qint(d1)
            f.times_qint(d1 + _arc_size(a), inverse=True)

    # N8
    if V_size == M:
        for a in sRp:
            d2, rem = divmod(a[0] - D.star + M, 2)
            if rem:
                raise ValueError("parity failure in the star distance")
            m_a = _arc_size(a)
            for t in range(0, n3 + 1):
                f.times_qint(d2 + t)
                f.times_qint(d2 + m_a + t, inverse=True)
            for ap in sW:
                h = sum(
                    1
                    for b in sW
                    if b == ap
                    or b[0] > ap[1]
                    or (b[0] <= ap[0] and ap[1] <= b[1])
                ) + sum(1 for t2 in T if t2[0] > ap[1])
                f.times_qint(d2 + m_a + h)
                f.times_qint(d2 + h, inverse=True)

    # N9
    base = sWp_out if n1 == 1 else sWp_out + sLp
    for a in base:
        d3 = N - a[1]
        m_a = _arc_size(a)
        f.times_qint(d3 + m_a + M)
        f.times_qint(d3 + 2 * m_a + M, inverse=True)

    # N10
    if s_M is not None:
        Uprime = {p: i for p, i in U.items() if 2 <= p <= M - 1}
        Vprime = dict(Uprime)
        if have_star:
            Vprime[1] = D.star

        def d4(p, sp):
            val, rem = divmod(s_M - sp + M - p, 2)
            if rem:
                raise ValueError("parity failure in d4")
            return val + 1

        def d5(E):
            val, rem = divmod(s_M - E[0] + M + 1, 2)
            if rem:
                raise ValueError("parity failure in d5")
            return val

        if n1 == 0 and not T:
            for p, sp in Uprime.items():
                f.times_qint(d4(p, sp), inverse=True)
        elif n1 == 0:
            for p, sp in Vprime.items():
                f.times_qint(d4(p, sp), inverse=True)
            leftmost_dash = min(T, key=left_end)
            for E in T:
                if E != leftmost_dash:
                    f.times_qint(d5(E), inverse=True)
        else:
            for p, sp in Vprime.items():
                f.times_qint(d4(p, sp), inverse=True)
            for E in T:
                f.times_qint(d5(E), inverse=True)

    # N11: left enumeration of ups, the unpaired down, arcs, dashed arcs and
    # integer-labelled downs (the star is excluded)
    objects = (
        [(i, "up") for i in D.ups]
        + ([(D.unpaired_down, "unpaired")] if n1 else [])
        + [(a[0], ("arc", a)) for a in S]
        + [(t[0], ("dash", t)) for t in T]
        + [(i, ("label", p)) for i, p in D.labels]
    )
    for idx, obj in enumerate(_sorted_objects(objects), start=1):
        if obj == "up":
            continue
        f.times_qint(idx)

    # N12: right enumeration of arcs, dashed arcs, labelled downs and the
    # star (by descending left end, so nested arcs count inside first)
    for i in range(1, n2 + 1):
        f.times_atom(("angle", i + M - 1))
    robjects = (
        [(-a[0], ("arc", a)) for a in S]
        + [(-t[0], ("dash", t)) for t in T]
        + [(-i, ("label", p)) for i, p in D.labels]
        + ([(-D.star, "star")] if have_star else [])
    )
    for idx, obj in enumerate(_sorted_objects(robjects), start=1):
        if obj == "star" or (isinstance(obj, tuple) and obj[0] == "dash"):
            f.times_atom(("angle", idx), inverse=True)
    return f


def psi_component(tag: str, D: Diagram) -> FactorizedScalar:
    if tag == "A":
        return _psi_A(D)
    if tag == "BI":
        return _psi_BI(D)
    if tag == "BII":
        return _psi_BII(D)
    if tag == "BIII":
        return _psi_BIII(D)
    if tag == "standard":
        return _psi_standard(D.string)
    raise ValueError(tag)


@dataclass
class GroundState:
    tag: str
    N: int
    M: int | None
    factors: dict[str, FactorizedScalar]

    def components(self) -> dict[str, RatioElem]:
        return {s: f.to_ratio() for s, f in self.factors.items()}

    def polynomial_components(self) -> dict[str, RingElem]:
        return {s: f.as_polynomial() for s, f in self.factors.items()}

    def evaluate(self, p: SpecPoint) -> dict[str, Fraction]:
        return {s: f.evaluate(p) for s, f in self.factors.items()}

    def to_json(self) -> dict:
        data = {"type": self.tag, "N": self.N}
        if self.tag == "BI":
            data["M"] = self.M
        data["components"] = {
            s: f.as_polynomial().to_text() for s, f in sorted(self.factors.items())
        }
        return data


def psi_vector(tag: str, N: int, M: int | None = None) -> GroundState:
    factors = {}
    for s in enumerate_strings(N):
        if tag == "standard":
            factors[s] = _psi_standard(s)
        else:
            factors[s] = psi_component(tag, build_diagram(tag, s, M))
    return GroundState(tag, N, M, factors)


# -- verification -------------------------------------------------------------


def verify_x_eigen(gs: GroundState) -> bool:
    """X Psi = lambda Psi exactly."""
    lam = candidate_eigenvalues(gs.tag, gs.N, gs.M)[0][1]
    comps = gs.components()
    image = op_apply(kl_operator(gs.tag, gs.N, "X", gs.M), comps)
    return op_eq({"Psi": image}, {"Psi": {s: lam * c for s, c in comps.items()}})


def verify_annihilation(gs: GroundState) -> dict[str, bool]:
    """e_i Psi = 0 (free parameters) and e_0 Psi = 0 after the integrable
    substitution Q0 -> q^{1-N} Q^{-1} (with Q = q^M afterwards for BI)."""
    N, tag, M = gs.N, gs.tag, gs.M
    comps = gs.components()
    report = {}
    for gen in generator_names(N):
        image = op_apply(kl_operator(tag, N, gen, M), comps)
        if gen == "e0":
            image = specialize({s: v.subst_Q0(N) for s, v in image.items()}, tag, M)
        report[gen] = all(v.is_zero() for v in image.values())
    return report


def e0_requires_condition(N: int = 2) -> bool:
    """Generically e_0 Psi != 0 before the substitution."""
    return bool(op_apply(kl_operator("A", N, "e0"), psi_vector("A", N).components()))


def oracle_change_of_basis(tag: str, N: int, M: int | None = None):
    """standard_to_kl(Psi0) against the closed-form Psi; returns
    (pass, scalar of proportionality)."""
    psi0 = psi_vector("standard", N).components()
    image = standard_to_kl(specialize(psi0, tag, M), tag, N, M)
    comps = psi_vector(tag, N, M).components()
    scalar = None
    for s in enumerate_strings(N):
        a = image.get(s)
        b = comps[s]
        if a is None or a.is_zero():
            return False, None
        if scalar is None:
            # all closed-form components are nonzero
            scalar = (a, b)
        # cross-check proportionality: a * scalar_den == b * scalar_num
        if a * scalar[1] != b * scalar[0]:
            return False, None
    num, den = scalar
    if num == den:
        return True, R_ONE
    return True, (num, den)


def structural_checks(gs: GroundState) -> dict[str, bool]:
    """Positivity / bar invariance / leading-term claims per family."""
    report = {}
    polys = gs.polynomial_components()
    tag = gs.tag
    if tag == "A":
        report["components in N[q,1/q,Q]"] = all(
            is_positivity_class(c, "qQ+") for c in polys.values()
        )
    elif tag in ("BII", "BIII"):
        report["components in N[q,1/q,Q,1/Q]"] = all(
            is_positivity_class(c, "qQ") for c in polys.values()
        )
    elif tag == "standard":
        report["components are monomials q^d Q^d'"] = all(
            len(c.terms) == 1 and list(c.terms.values()) == [1]
            for c in polys.values()
        )
    if tag == "BI":
        report["components in N[q,1/q]"] = all(
            is_positivity_class(c, "q") for c in polys.values()
        )
        report["components bar-invariant"] = all(
            c.bar() == c for c in polys.values()
        )
        ok = True
        for s, c in polys.items():
            d_D = sum(
                (len(s) - site + 1) + gs.M - 1
                for site, ch in enumerate(s, start=1)
                if ch == "+"
            )
            lead = c.max_q_degree()
            if lead != d_D or c.terms.get((d_D, 0, 0)) != 1:
                ok = False
        report["leading term q^{d_D} with coefficient 1"] = ok
    return report


def numeric_ground_state_check(N: int, q: float, Q: float, aN: float, a0: float):
    """Floating-point Perron-Frobenius check of the two-boundary chain.

    Returns (lowest, positive): lowest is the lowest eigenvalue of the
    Hamiltonian H = -sum of the generators (e_N weighted by aN, e_0 by a0)
    at the integrable point, which the ground-state claim puts at 0; and
    positive maps "BI" (M = 1) and "BIII" to whether every closed-form
    ground-state component of size N is positive at (q, Q).  Raises
    ValueError if H is not exactly symmetric, since eigvalsh reads only one
    triangle of it.
    """
    import numpy as np

    qf = Fraction(q).limit_denominator(10**12)
    Qf = Fraction(Q).limit_denominator(10**12)
    Q0f = qf ** (1 - N) / Qf  # the integrable condition
    p = SpecPoint(qf, Qf, Q0f)
    dim = 2**N
    order = enumerate_strings(N)
    index = {s: i for i, s in enumerate(order)}
    H = np.zeros((dim, dim))

    def subtract(op, coeff):
        for col, column in op.items():
            j = index[col]
            for row, c in column.items():
                H[index[row], j] -= coeff * float(c.evaluate(p))

    couplings = {"eN": aN, "e0": a0}
    for gen in generator_names(N):
        subtract(standard_operator(N, gen), couplings.get(gen, 1.0))

    if not np.array_equal(H, H.T):
        raise ValueError(f"H is not symmetric at N={N}, q={q}, Q={Q}")
    lowest = float(np.linalg.eigvalsh(H)[0])

    pos = {}
    for tag, M in (("BI", 1), ("BIII", None)):
        gs = psi_vector(tag, N, M)
        vals = gs.evaluate(SpecPoint(qf, Qf, 1))
        pos[tag] = all(v > 0 for v in vals.values())
    return lowest, pos
