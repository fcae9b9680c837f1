"""Closed-form ground-state components for all five bases.

Each component is one frozen FactorizedScalar, q^a Q^b times quantum-integer
and bracket atoms over atoms, built once by _component from its bracket
arguments; it can be expanded exactly or evaluated at a rational point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .basis import Diagram, enumerate_strings, make_diagram, specialize, standard_to_kl
from .ring import (
    NotDivisible,
    R_ONE,
    RatioElem,
    RingElem,
    SpecPoint,
    angle,
    atom_eval,
    qint,
    qshift,
    is_positivity_class,
)
from .kl_action import kl_operator
from .coideal import _integer_rank, _integer_row, candidate_eigenvalues, eval_op_at, x_matrix_kl
from .algebra import (
    Op, generator_names, hamiltonian_terms, identity_mismatches, vector_mismatches
)

_mono = RingElem.mono


class NonPolynomialComponent(Exception):
    """A ground-state component failed to reduce to a Laurent polynomial."""


@dataclass(frozen=True)
class FactorizedScalar:
    """q^a Q^b times quantum-type atoms over quantum-type atoms."""

    q_exp: int = 0
    Q_exp: int = 0
    num: tuple = ()
    den: tuple = ()

    def to_ratio(self) -> RatioElem:
        # Atoms on both sides cancel as a multiset before anything is
        # expanded; exact division then reduces what is left.
        num_atoms, den_atoms = Counter(self.num), Counter(self.den)
        common = num_atoms & den_atoms
        num = _mono(1, self.q_exp, self.Q_exp)
        for atom in (num_atoms - common).elements():
            num = num * atom
        return RatioElem(num, tuple((den_atoms - common).elements())).reduced()

    def as_polynomial(self) -> RingElem:
        return _as_polynomial(self.to_ratio())

    def evaluate(self, p: SpecPoint) -> Fraction:
        # Numerators and denominators are multiplied as ints and reduced
        # once; at q = Q = 1 every atom value is an integer.
        v = p.monomial((self.q_exp, self.Q_exp, 0))
        n, d = v.numerator, v.denominator
        for atom in self.num:
            v = atom_eval(atom, p)
            n *= v.numerator
            d *= v.denominator
        for atom in self.den:
            v = atom_eval(atom, p)
            n *= v.denominator
            d *= v.numerator
        return Fraction(n, d)


def _component(nums=(), dens=(), num_atoms=(), den_atoms=(), q_exp=0, Q_exp=0) -> FactorizedScalar:
    """q^q_exp Q^Q_exp [n_1][n_2]... num_atoms / ([d_1][d_2]... den_atoms),
    with the n_i in nums and the d_i in dens.  [1] is left out, and a
    bracket [n] with n <= 0 raises ValueError."""
    for n in (*nums, *dens):
        if n <= 0:
            raise ValueError(f"nonpositive quantum integer [{n}] in a component")
    return FactorizedScalar(
        q_exp,
        Q_exp,
        tuple(qint(n) for n in nums if n != 1) + tuple(num_atoms),
        tuple(qint(n) for n in dens if n != 1) + tuple(den_atoms),
    )


def _as_polynomial(r: RatioElem) -> RingElem:
    try:
        return r.as_ring()
    except NotDivisible as exc:
        raise NonPolynomialComponent(str(exc)) from exc


def _block_kinds(D: Diagram) -> list[str]:
    """The kind of each block of D in D.blocks() order; a BII mark's kind is
    its letter, 'e' or 'o'."""
    return [b[2] if b[0] == "mark" else b[0] for b in D.blocks()]


def _places(kinds, counted, taken, from_right=False) -> list[int]:
    """Number the blocks whose kind is in counted, from the left or from the
    right, and return the numbers of those whose kind is in taken.  Blocks
    are ordered by left end, so from the left an outer arc comes before
    the arcs nested inside it, and from the right after them."""
    out, n = [], 0
    for k in reversed(kinds) if from_right else kinds:
        if k in counted:
            n += 1
            if k in taken:
                out.append(n)
    return out


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
    # each + contributes q^(its position from the right, minus one) Q
    ups = [site for site, c in enumerate(s, start=1) if c == "+"]
    return _component(q_exp=sum(len(s) - site for site in ups), Q_exp=len(ups))


def _skeleton(D: Diagram, down: str):
    """The bracket arguments that A, BII and BIII share; down is the
    family's kind of down block ('down', 'e' or 'circle').  nums are the
    left places of the downs and arcs, numbered over ups, downs and arcs;
    dens are the arc sizes, then the right places of the downs, numbered
    over downs and arcs.  Returns (kinds, nums, dens)."""
    kinds = _block_kinds(D)
    nums = _places(kinds, ("up", down, "arc"), (down, "arc"))
    dens = [_arc_size(a) for a in D.arcs]
    dens += _places(kinds, (down, "arc"), (down,), from_right=True)
    return kinds, nums, dens


def _psi_A(D: Diagram) -> FactorizedScalar:
    _, nums, dens = _skeleton(D, "down")
    d = len(D.ups) + len(D.arcs)
    return _component(nums, dens, q_exp=d * (d - 1) // 2, Q_exp=d)


def _psi_BII(D: Diagram) -> FactorizedScalar:
    kinds, nums, dens = _skeleton(D, "e")
    shifts = _places(kinds, ("up", "o", "arc"), ("up", "arc"), from_right=True)
    return _component(nums, dens, [qshift(n - 1) for n in shifts])


def _psi_BIII(D: Diagram) -> FactorizedScalar:
    _, nums, dens = _skeleton(D, "circle")
    d = len(D.ups) + len(D.arcs)
    return _component(nums, dens, [qshift(i) for i in range(d)])


def _psi_BI(D: Diagram) -> FactorizedScalar:
    M = D.M
    N = D.N
    S = list(D.arcs)
    T = list(D.dashed)
    label_site = D.label_sites()  # the star is label 1
    n1 = 1 if D.unpaired_down is not None else 0
    n_up = len(D.ups)
    s_M = label_site.get(M)

    sR = []
    sWp = []
    sW = []
    sL = []
    if s_M is not None:
        sR = [a for a in S if a[0] > s_M]
    if D.star is not None:
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
    nums, dens = [], [_arc_size(a) for a in S]

    # N6
    if V_size == M and n1 == 0:
        nums.append(n5)
        dens.append(n4)

    # N7
    for p, sp in U.items():
        for a in sRp:
            d1 = _half(a[0] - sp + M - p + 1)
            nums.append(d1)
            dens.append(d1 + _arc_size(a))

    # N8
    if V_size == M:
        for a in sRp:
            d2 = _half(a[0] - D.star + M)
            m_a = _arc_size(a)
            for t in range(0, n3 + 1):
                nums.append(d2 + t)
                dens.append(d2 + m_a + t)
            for ap in sW:
                h = sum(
                    1
                    for b in sW
                    if b == ap
                    or b[0] > ap[1]
                    or (b[0] <= ap[0] and ap[1] <= b[1])
                ) + sum(1 for t2 in T if t2[0] > ap[1])
                nums.append(d2 + m_a + h)
                dens.append(d2 + h)

    # N9
    base = sWp_out if n1 == 1 else sWp_out + sLp
    for a in base:
        d3 = N - a[1]
        m_a = _arc_size(a)
        nums.append(d3 + m_a + M)
        dens.append(d3 + 2 * m_a + M)

    # N10: the labels below M, the star only once a down or a dashed arc
    # lies left of it, then the dashed arcs, the leftmost one only with a down
    if s_M is not None:
        first = 1 if n1 or T else 2
        dens += [_half(s_M - sp + M - p) + 1
                 for p, sp in label_site.items() if first <= p <= M - 1]
        dens += [_half(s_M - E[0] + M + 1) for E in (T if n1 else T[1:])]

    # N11: left enumeration of ups, the unpaired down, arcs, dashed arcs and
    # integer-labelled downs (the star is excluded)
    kinds = _block_kinds(D)
    nums += _places(kinds, ("up", "down", "arc", "dash", "label"),
                    ("down", "arc", "dash", "label"))

    # N12: right enumeration of arcs, dashed arcs, labelled downs and the
    # star, nested arcs counted inside first
    right = _places(kinds, ("arc", "dash", "label", "star"), ("dash", "star"), from_right=True)
    return _component(nums, dens, [angle(i + M - 1) for i in range(1, n2 + 1)],
                      [angle(n) for n in right])


_RULES = {"A": _psi_A, "BI": _psi_BI, "BII": _psi_BII, "BIII": _psi_BIII}


def psi_component(tag: str, D: Diagram) -> FactorizedScalar:
    """The closed-form component of the decorated diagram D."""
    if tag not in _RULES:
        raise ValueError(tag)
    return _RULES[tag](D)


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
    if tag == "standard":
        factors = {s: _psi_standard(s) for s in enumerate_strings(N)}
    else:
        factors = {s: psi_component(tag, make_diagram(tag, s, M)) for s in enumerate_strings(N)}
    return GroundState(tag, N, M, factors)


# -- verification -------------------------------------------------------------

E0_GENERIC = "e0 Psi != 0 before the integrable substitution"


def verify_x_eigen(gs: GroundState) -> bool:
    """X Psi = lambda Psi exactly."""
    lam = candidate_eigenvalues(gs.tag, gs.N, gs.M)[0][1]
    X = x_matrix_kl(gs.tag, gs.N, gs.M)
    return not any(identity_mismatches({"Psi": gs.components()}, [(R_ONE, (X,))], [(lam, ())]))


def _one_row(v: dict[str, RatioElem]) -> Op:
    """The vector v as an operator with the one row "Psi": {s: {"Psi": v_s}}."""
    return {s: {"Psi": c} for s, c in v.items()}


def _at_integrable_point(v: dict[str, RatioElem], tag: str, N: int, M) -> dict[str, RatioElem]:
    """v after Q0 -> q^{1-N} Q^{-1} and then the family's parameters
    (basis.specialize), one entry at a time.  An entry that the map leaves
    equal is kept as the same object, so a vector free of Q0 (and, for BI,
    of Q) is not copied."""
    out = {}
    for s, c in v.items():
        image = specialize({s: c.subst_Q0(N)}, tag, M)[s]
        out[s] = c if image == c else image
    return out


def verify_annihilation(gs: GroundState) -> dict[str, bool]:
    """e_i Psi = 0 (free parameters) and e_0 Psi = 0 after the integrable
    substitution Q0 -> q^{1-N} Q^{-1} (with Q = q^M afterwards for BI).

    One more entry holds that e_0 Psi != 0 before the substitution, so the
    e_0 entry shows the condition at work rather than an e_0 that vanishes
    outright.

    e_1 ... e_N are checked on Psi as one column.  e_0 Psi is never built.
    With E = e_0 stored by columns, its row t is
    (E Psi)_t = sum_s E[s][t] Psi_s, the one entry of P r_t, where
    r_t = {s: E[s][t]} is row t of E and P = {s: {"Psi": Psi_s}} is Psi as
    an operator with one row.  The rows are collected from a fresh e_0,
    popping each column as it is read, so no second copy of e_0 exists, and
    identity_mismatches reads them one at a time, so at most one row's sum
    is alive.  Before the substitution it reads the rows in turn and stops
    at the first whose value is nonzero.  The substitution phi is a ring
    map, phi((E Psi)_t) = sum_s phi(E[s][t]) phi(Psi_s), so it is applied
    to each row's entries as that row is read and once to Psi's components,
    which equals applying it to the image, for any Psi.  Psi is free of Q0
    in every family, and of Q for BI, so the map leaves it uncopied.
    """
    N, tag, M = gs.N, gs.tag, gs.M
    psi = gs.components()
    report = {
        # each e_g is built inside the call that reads it: no two are alive at once
        gen: not any(
            identity_mismatches({"Psi": psi}, [(R_ONE, (kl_operator(tag, N, gen, M),))], [])
        )
        for gen in generator_names(N)
        if gen != "e0"
    }
    # the standard basis's e_0 is a shared, read-only matrix; only its map of
    # columns is copied
    E0 = dict(kl_operator(tag, N, "e0", M))
    rows: dict[str, dict[str, RatioElem]] = {}
    for s, c in psi.items():
        if c:  # as in op_apply, only the columns that Psi reads
            for t, a in E0.pop(s).items():
                rows.setdefault(t, {})[s] = a
    report[E0_GENERIC] = any(identity_mismatches(rows, [(R_ONE, (_one_row(psi),))], []))
    at_point = _one_row(_at_integrable_point(psi, tag, N, M))
    report["e0"] = not any(identity_mismatches(
        ((t, _at_integrable_point(rows.pop(t), tag, N, M)) for t in list(rows)),
        [(R_ONE, (at_point,))],
        [],
    ))
    return report


def oracle_change_of_basis(gs: GroundState) -> bool:
    """The closed-form Psi of gs equals, component by component, the image
    under standard_to_kl of the standard-basis Psi specialized to the
    family: equality, so the scalar between the two is 1."""
    psi0 = specialize(psi_vector("standard", gs.N).components(), gs.tag, gs.M)
    image = standard_to_kl(psi0, gs.tag, gs.N, gs.M)
    return not any(vector_mismatches(image, gs.components()))


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


def _psd_blocks(rows: dict[int, dict[int, Fraction]]) -> bool:
    """Whether the matrix with these rows is a direct sum of symmetric 1 x 1
    and 2 x 2 blocks with nonnegative diagonal and determinant, which makes
    it positive semidefinite.  A matrix of any other shape fails."""
    for i, row in rows.items():
        off = [j for j in row if j != i]
        a = row.get(i, 0)
        if a < 0 or len(off) > 1:
            return False
        if off:
            (j,) = off
            partner = rows.get(j, {})
            if partner.get(i) != row[j] or a * partner.get(j, 0) < row[j] ** 2:
                return False
    return True


def numeric_ground_state_check(N: int, q: Fraction, Q: Fraction, aN: Fraction, a0: Fraction):
    """Exact Perron-Frobenius certificate of the two-boundary chain at a
    rational point.

    Returns (certified, positive).  certified holds when 0 is the lowest
    eigenvalue of H = -sum a_g e_g, the H that pauli_equivalence_check
    verifies, and it is simple, at (q, Q) and the integrable
    Q0 = q^{1-N}/Q.  It is read off the terms (a_g, e_g) of
    hamiltonian_terms(N, aN, a0), evaluated exactly: every -e_g is a direct sum of
    positive semidefinite blocks (_psd_blocks) and every a_g >= 0, so H is
    positive semidefinite and its kernel is the common kernel of the e_g
    with a_g > 0 (H is frustration-free; Bravyi and Terhal, SIAM J. Comput.
    39, 2009).  That kernel must have dimension 1, by the exact rank of the
    stacked rows of those e_g.  positive maps "BI" (M = 1) and "BIII" to
    whether every closed-form ground-state component of size N is positive
    at (q, Q).
    """
    p = SpecPoint(q, Q, Fraction(q) ** (1 - N) / Q)  # the integrable condition
    order = enumerate_strings(N)
    certified, stacked = True, []
    for a, E in hamiltonian_terms(N, RatioElem.rational(aN), RatioElem.rational(a0)):
        coupling = a.evaluate(p)
        minus_e = {i: {j: -v for j, v in row.items()} for i, row in eval_op_at(E, p, order).items()}
        certified = certified and coupling >= 0 and _psd_blocks(minus_e)
        if coupling:
            stacked.extend(_integer_row(row)[1] for row in minus_e.values())
    certified = certified and len(order) - _integer_rank(stacked) == 1

    pos = {}
    for tag, M in (("BI", 1), ("BIII", None)):
        gs = psi_vector(tag, N, M)
        vals = gs.evaluate(SpecPoint(q, Q, 1))
        pos[tag] = all(v > 0 for v in vals.values())
    return certified, pos
