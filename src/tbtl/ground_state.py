"""Closed-form ground-state components for all five bases.

Each component is built as a factored product (monomial prefactor times
quantum-integer and bracket atoms over an atom denominator), which can be
expanded exactly or evaluated at a rational point.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

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
from .coideal import candidate_eigenvalues, eval_op_at
from .algebra import generator_names, hamiltonian_matrix, op_apply, op_eq

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
        # Atoms on both sides cancel as a multiset before anything is
        # expanded; exact division then reduces what is left.
        num_atoms, den_atoms = Counter(self.num), Counter(self.den)
        common = num_atoms & den_atoms
        num = _mono(1, self.q_exp, self.Q_exp)
        for atom in (num_atoms - common).elements():
            num = num * atom_expand(atom)
        den = tuple(("raw", atom_expand(a)) for a in (den_atoms - common).elements())
        return RatioElem(num, den).reduced()

    def as_polynomial(self) -> RingElem:
        return _as_polynomial(self.to_ratio())

    def evaluate(self, p: SpecPoint) -> Fraction:
        num = p.monomial((self.q_exp, self.Q_exp, 0))
        for atom in self.num:
            num *= atom_eval(atom, p)
        den = Fraction(1)
        for atom in self.den:
            den *= atom_eval(atom, p)
        return num / den


def _as_polynomial(r: RatioElem) -> RingElem:
    try:
        return r.as_ring()
    except NotDivisible as exc:
        raise NonPolynomialComponent(str(exc)) from exc


def _sorted_objects(entries):
    """Sort (position, payload) pairs.  Arcs keyed by left end ascending put
    outer arcs before the arcs nested inside them."""
    return [payload for _, payload in sorted(entries, key=lambda e: e[0])]


def _half(n: int) -> int:
    """n / 2 for a length or distance that the rules make even."""
    h, rem = divmod(n, 2)
    if rem:
        raise ValueError(f"parity failure: {n} is odd")
    return h


def _arc_size(pair) -> int:
    return _half(pair[1] - pair[0] + 1)


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
    label_site = D.label_sites()  # the star is label 1
    n1 = 1 if D.unpaired_down is not None else 0
    n_up = len(D.ups)
    have_star = D.star is not None
    s_M = label_site.get(M)

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
            boundary = T[0][0]  # the leftmost dashed arc
        else:
            boundary = None
        if boundary is not None:
            sW = [a for a in S if boundary < a[0] < D.star]
        leftmost_down = boundary if boundary is not None else D.star
        if n_up:
            sL = [a for a in S if D.ups[-1] < a[0] < leftmost_down]
        else:
            sL = [a for a in S if a[0] < leftmost_down]

    def outer(a):
        return not any(
            b != a and b[0] < a[0] and a[1] < b[1] for b in S + T
        )

    sRp = [a for a in sR if outer(a)]
    sWp_out = [a for a in sW if outer(a)]
    sLp = [a for a in sL if outer(a)]

    U = {p: i for p, i in label_site.items() if p >= 2}
    V_size = len(label_site)

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
            d1 = _half(a[0] - sp + M - p + 1)
            f.times_qint(d1)
            f.times_qint(d1 + _arc_size(a), inverse=True)

    # N8
    if V_size == M:
        for a in sRp:
            d2 = _half(a[0] - D.star + M)
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
        Vprime = {p: i for p, i in label_site.items() if p <= M - 1}
        Uprime = {p: i for p, i in Vprime.items() if p >= 2}

        def d4(p, sp):
            return _half(s_M - sp + M - p) + 1

        def d5(E):
            return _half(s_M - E[0] + M + 1)

        if n1 == 0 and not T:
            for p, sp in Uprime.items():
                f.times_qint(d4(p, sp), inverse=True)
        elif n1 == 0:
            for p, sp in Vprime.items():
                f.times_qint(d4(p, sp), inverse=True)
            for E in T[1:]:  # all but the leftmost dashed arc
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
    """Psi as factored components.  Each component is expanded once per
    ground state (to_ratio) and kept; every caller gets a fresh dict."""

    tag: str
    N: int
    M: int | None
    factors: dict[str, FactorizedScalar]

    @cached_property
    def _ratios(self) -> dict[str, RatioElem]:
        return {s: f.to_ratio() for s, f in self.factors.items()}

    def components(self) -> dict[str, RatioElem]:
        return dict(self._ratios)

    def polynomial_components(self) -> dict[str, RingElem]:
        return {s: _as_polynomial(r) for s, r in self._ratios.items()}

    def evaluate(self, p: SpecPoint) -> dict[str, Fraction]:
        return {s: f.evaluate(p) for s, f in self.factors.items()}

    def to_json(self) -> dict:
        data = {"type": self.tag, "N": self.N}
        if self.tag == "BI":
            data["M"] = self.M
        data["components"] = {
            s: c.to_text() for s, c in sorted(self.polynomial_components().items())
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

E0_GENERIC = "e0 Psi != 0 before the integrable substitution"


def verify_x_eigen(gs: GroundState) -> bool:
    """X Psi = lambda Psi exactly."""
    lam = candidate_eigenvalues(gs.tag, gs.N, gs.M)[0][1]
    comps = gs.components()
    image = op_apply(kl_operator(gs.tag, gs.N, "X", gs.M), comps)
    return op_eq({"Psi": image}, {"Psi": {s: lam * c for s, c in comps.items()}})


def verify_annihilation(gs: GroundState) -> dict[str, bool]:
    """e_i Psi = 0 (free parameters) and e_0 Psi = 0 after the integrable
    substitution Q0 -> q^{1-N} Q^{-1} (with Q = q^M afterwards for BI).

    One more entry holds that e_0 Psi != 0 before the substitution, so the
    e_0 entry shows the condition at work rather than an e_0 that vanishes
    outright."""
    N, tag, M = gs.N, gs.tag, gs.M
    comps = gs.components()
    report = {}
    for gen in generator_names(N):
        image = op_apply(kl_operator(tag, N, gen, M), comps)
        if gen == "e0":
            report[E0_GENERIC] = bool(image)
            image = specialize({s: v.subst_Q0(N) for s, v in image.items()}, tag, M)
        report[gen] = all(v.is_zero() for v in image.values())
    return report


def oracle_change_of_basis(gs: GroundState):
    """standard_to_kl(Psi0) against the closed-form Psi of gs; returns
    (pass, scalar of proportionality)."""
    tag, N, M = gs.tag, gs.N, gs.M
    psi0 = psi_vector("standard", N).components()
    image = standard_to_kl(specialize(psi0, tag, M), tag, N, M)
    comps = gs.components()
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

    Returns (lowest, positive): lowest is the lowest eigenvalue of
    hamiltonian_matrix(N, aN, a0), the H that pauli_equivalence_check
    verifies, evaluated exactly at the integrable point (q, Q, aN and a0
    rounded to rationals) and then converted to floats; the ground-state
    claim puts it at 0.  positive maps "BI" (M = 1) and "BIII" to whether
    every closed-form ground-state component of size N is positive at
    (q, Q).  Raises ValueError if H is not exactly symmetric, since
    eigvalsh reads only one triangle of it.

    Unless OPENBLAS_NUM_THREADS is already set, it is set to 1 before the
    first import of numpy; it has no effect once numpy is loaded.  On a
    2-core machine, eigvalsh of the 256 x 256 H at N = 8 took about 0.5 s
    with OpenBLAS's default threads in a `verify --check all` run, and
    0.005 s with one.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    qf, Qf, aNf, a0f = (Fraction(x).limit_denominator(10**12) for x in (q, Q, aN, a0))
    Q0f = qf ** (1 - N) / Qf  # the integrable condition
    exact = eval_op_at(
        hamiltonian_matrix(N, RatioElem.rational(aNf), RatioElem.rational(a0f)),
        SpecPoint(qf, Qf, Q0f),
        enumerate_strings(N),
    )
    H = np.zeros((2**N, 2**N))
    for i, row in exact.items():
        for j, v in row.items():
            H[i, j] = float(v)

    if not np.array_equal(H, H.T):
        raise ValueError(f"H is not symmetric at N={N}, q={q}, Q={Q}")
    lowest = float(np.linalg.eigvalsh(H)[0])

    pos = {}
    for tag, M in (("BI", 1), ("BIII", None)):
        gs = psi_vector(tag, N, M)
        vals = gs.evaluate(SpecPoint(qf, Qf, 1))
        pos[tag] = all(v > 0 for v in vals.values())
    return lowest, pos
