"""Standard-basis matrices of the loop-model generators and the coideal
generator, with relation, quotient, Hamiltonian and commutant checks.

Operators are stored column-sparse: {column string: {row string: coeff}}.
Site 1 is the leftmost tensor factor and the per-site basis order is
(v_1, v_{-1}), matching '+' and '-'.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .basis import enumerate_strings, flip, read_only
from .ring import (
    RatioElem,
    RingElem,
    R_ONE,
    _atom_key,
    qQ_bracket,
)

Vec = dict[str, RatioElem]
Op = dict[str, Vec]

_mono = RingElem.mono


def _accumulate(out: Vec, s: str, c: RatioElem):
    if not c:
        return
    cur = out.get(s)
    nxt = c if cur is None else cur + c
    if not nxt:
        out.pop(s, None)
    else:
        out[s] = nxt


def _add_scaled(H: Op, A: Op, c: RatioElem):
    """H += c A, in place; a column of A that H lacks is added to H."""
    for col, column in A.items():
        out = H.setdefault(col, {})
        for row, v in column.items():
            _accumulate(out, row, c * v)


def op_scale(A: Op, c: RatioElem) -> Op:
    out: Op = {}
    _add_scaled(out, A, c)
    return out


def op_apply(A: Op, v: Vec) -> Vec:
    """A v, the one way to apply an operator to a vector.

    A fused multiply-accumulate kernel (after Johnson 1974, Monagan and
    Pearce 2009): each product c * a of a vector entry c at column s and a
    matrix entry a of column s is summed term by term into one plain
    {monomial: int} dict per (row, denominator), where the denominator is
    the multiset c.den + a.den sorted as RatioElem sorts it.  No product is
    built as an object: the outer loop runs over the factor with fewer
    terms, so a monomial factor (the common case) costs one pass over the
    other factor's terms, and a term is dropped as soon as its coefficient
    reaches 0.  At the end each nonempty dict is wrapped once, without
    reduction, and the groups of a row that carry a denominator (rare) are
    added to it with RatioElem addition.

    The result has the value of the sum of the products c * a and no zero
    entry, and it shares no term dict with A or v; neither input is changed.
    Every column of v with a nonzero entry must be a column of A.
    """
    plain: dict[str, dict] = {}  # row -> terms of the products with no denominator
    fractional: dict[tuple, dict] = {}  # (row, den) -> terms
    for col, c in v.items():
        ct = c.num.terms
        if not ct:
            continue
        cden = c.den
        for row, a in A[col].items():
            at = a.num.terms
            aden = a.den
            if cden or aden:
                den = tuple(sorted(cden + aden, key=_atom_key)) if cden and aden else cden or aden
                t = fractional.get((row, den))
                if t is None:
                    t = fractional[row, den] = {}
            else:
                t = plain.get(row)
                if t is None:
                    t = plain[row] = {}
            small, big = (ct, at) if len(ct) <= len(at) else (at, ct)
            for (e1, f1, g1), c1 in small.items():
                for (e2, f2, g2), c2 in big.items():
                    m = (e1 + e2, f1 + f2, g1 + g2)
                    x = t.get(m, 0) + c1 * c2
                    if x:
                        t[m] = x
                    else:
                        del t[m]
    out: Vec = {row: RatioElem(RingElem(t)) for row, t in plain.items() if t}
    for (row, den), t in fractional.items():
        if t:
            _accumulate(out, row, RatioElem(RingElem(t), den))
    return out


def op_mul(A: Op, B: Op) -> Op:
    return {col: op_apply(A, column) for col, column in B.items()}


def op_mismatches(A: Op, B: Op):
    """Yield the (column, row) entries where A and B differ, column by column
    over A; a missing entry counts as zero."""
    for col, va in A.items():
        vb = B.get(col, {})
        for row in {**va, **vb}:
            ca, cb = va.get(row), vb.get(row)
            if ca is None or cb is None:
                if ca or cb:
                    yield col, row
            elif ca != cb:
                yield col, row


def op_eq(A: Op, B: Op) -> bool:
    return next(op_mismatches(A, B), None) is None


# -- generators -----------------------------------------------------------


def _local_op(N: int, i: int, local) -> Op:
    """Operator on the sites i, i+1, ... given by local[(row_chars, col_chars)]."""
    k = len(next(iter(local))[0])
    out: Op = {}
    for s in enumerate_strings(N):
        head, here, tail = s[: i - 1], s[i - 1 : i - 1 + k], s[i - 1 + k :]
        out[s] = {head + rows + tail: c for (rows, cols), c in local.items() if cols == here}
    return out


# e_i on the sites (i, i+1), e_N on site N and e_0 on site 1, as
# {(rows, cols): coeff}; e_i is zero on ++ and --.
_E_BULK = {
    ("+-", "+-"): RatioElem(_mono(-1, -1)),
    ("-+", "+-"): R_ONE,
    ("+-", "-+"): R_ONE,
    ("-+", "-+"): RatioElem(_mono(-1, 1)),
}
_E_N = {
    ("-", "+"): R_ONE,
    ("+", "+"): RatioElem(_mono(-1, 0, -1)),
    ("+", "-"): R_ONE,
    ("-", "-"): RatioElem(_mono(-1, 0, 1)),
}
_E_0 = {
    ("-", "+"): R_ONE,
    ("+", "+"): RatioElem(_mono(-1, 0, 0, 1)),
    ("+", "-"): R_ONE,
    ("-", "-"): RatioElem(_mono(-1, 0, 0, -1)),
}


def generator_names(N: int) -> list[str]:
    return [f"e{i}" for i in range(1, N)] + ["eN", "e0"]


@lru_cache(maxsize=None)
def generator_matrix(N: int, gen: str) -> Op:
    """Standard-basis matrix on V_1^{⊗N} of e1..e{N-1}, eN, e0 or X, by name;
    read-only, since every caller shares it."""
    if gen == "X":
        return read_only(x_matrix_standard(N))
    if gen not in generator_names(N):
        raise ValueError(f"no generator {gen!r} at N={N}")
    if gen == "eN":
        return read_only(_local_op(N, N, _E_N))
    if gen == "e0":
        return read_only(_local_op(N, 1, _E_0))
    return read_only(_local_op(N, int(gen[1:]), _E_BULK))


def check_defining_relations(N: int) -> dict[str, bool]:
    """Every defining relation of the two-boundary algebra, as matrices."""
    if N < 2:
        raise ValueError("need N >= 2")
    e = [None] + [generator_matrix(N, f"e{i}") for i in range(1, N)]
    eN, e0 = generator_matrix(N, "eN"), generator_matrix(N, "e0")
    two = RatioElem(-(_mono(1, 1) + _mono(1, -1)))
    report: dict[str, bool] = {}
    for i in range(1, N):
        report[f"e{i}^2 = -(q+1/q) e{i}"] = op_eq(op_mul(e[i], e[i]), op_scale(e[i], two))
    for i in range(1, N - 1):
        report[f"e{i} e{i+1} e{i} = e{i}"] = op_eq(op_mul(e[i], op_mul(e[i + 1], e[i])), e[i])
        report[f"e{i+1} e{i} e{i+1} = e{i+1}"] = op_eq(
            op_mul(e[i + 1], op_mul(e[i], e[i + 1])), e[i + 1]
        )
    for i in range(1, N):
        for j in range(i + 2, N):
            report[f"[e{i}, e{j}] = 0"] = op_eq(op_mul(e[i], e[j]), op_mul(e[j], e[i]))
    report["eN^2 = -(Q+1/Q) eN"] = op_eq(
        op_mul(eN, eN), op_scale(eN, RatioElem(-(_mono(1, 0, 1) + _mono(1, 0, -1))))
    )
    bN = RatioElem(_mono(1, 1, -1) + _mono(1, -1, 1))
    report["e(N-1) eN e(N-1) = (q/Q + Q/q) e(N-1)"] = op_eq(
        op_mul(e[N - 1], op_mul(eN, e[N - 1])), op_scale(e[N - 1], bN)
    )
    for i in range(1, N - 1):
        report[f"[e{i}, eN] = 0"] = op_eq(op_mul(e[i], eN), op_mul(eN, e[i]))
    report["e0^2 = -(Q0+1/Q0) e0"] = op_eq(
        op_mul(e0, e0), op_scale(e0, RatioElem(-(_mono(1, 0, 0, 1) + _mono(1, 0, 0, -1))))
    )
    b0 = RatioElem(_mono(1, 1, 0, -1) + _mono(1, -1, 0, 1))
    report["e1 e0 e1 = (q/Q0 + Q0/q) e1"] = op_eq(
        op_mul(e[1], op_mul(e0, e[1])), op_scale(e[1], b0)
    )
    for i in range(2, N):
        report[f"[e{i}, e0] = 0"] = op_eq(op_mul(e[i], e0), op_mul(e0, e[i]))
    report["[eN, e0] = 0"] = op_eq(op_mul(eN, e0), op_mul(e0, eN))
    return report


def quotient_words(N: int):
    """The words I_N and J_N of the finite-dimensional quotient."""
    if N % 2 == 0:
        n = N // 2
        I = [f"e{2 * i + 1}" for i in range(n)]
        J = ["e0"] + [f"e{2 * i}" for i in range(1, n)] + ["eN"]
    else:
        n = (N - 1) // 2
        I = ["e0"] + [f"e{2 * i}" for i in range(1, n + 1)]
        J = [f"e{2 * i + 1}" for i in range(n)] + ["eN"]
    return I, J


def alpha_closed_form(N: int) -> RingElem:
    if N % 2 == 0:
        return (_mono(1, 0, -1) - _mono(1, -1, 0, 1)) * (_mono(1, 0, 1) - _mono(1, 1, 0, -1))
    return (_mono(1) + _mono(1, 0, -1, 1)) * (_mono(1) + _mono(1, 0, 1, -1))


def check_quotient_alpha(N: int) -> bool:
    """I != 0, I J I = alpha_N I and J I J = alpha_N J, with alpha_N the
    closed form."""

    def word(names):
        m = generator_matrix(N, names[0])
        for name in names[1:]:
            m = op_mul(m, generator_matrix(N, name))
        return m

    I, J = (word(names) for names in quotient_words(N))
    alpha = RatioElem(alpha_closed_form(N))
    return (
        not op_eq(I, {})
        and op_eq(op_mul(I, op_mul(J, I)), op_scale(I, alpha))
        and op_eq(op_mul(J, op_mul(I, J)), op_scale(J, alpha))
    )


# -- Hamiltonians ----------------------------------------------------------


def hamiltonian_terms(N: int, aN: RatioElem, a0: RatioElem) -> list[tuple[RatioElem, Op]]:
    """The (coupling a_g, e_g) pairs of H = -sum a_g e_g, with a_g = 1 for
    e1..e{N-1}, aN for eN and a0 for e0: the one place that knows H's
    couplings."""
    coupling = {"eN": aN, "e0": a0}
    return [(coupling.get(gen, R_ONE), generator_matrix(N, gen)) for gen in generator_names(N)]


def hamiltonian_matrix(N: int, aN: RatioElem, a0: RatioElem) -> Op:
    """H = -sum e_i - aN eN - a0 e0, the sum of hamiltonian_terms:
    pauli_equivalence_check verifies it, and numeric_ground_state_check
    certifies its ground state term by term."""
    H: Op = {}
    for a, E in hamiltonian_terms(N, aN, a0):
        _add_scaled(H, E, -a)
    return H


def pauli_hamiltonian(N: int, aN: RatioElem, a0: RatioElem) -> Op:
    """The spin-chain form of the two-boundary Hamiltonian.

    sigma^x sigma^x + sigma^y sigma^y is assembled as
    2(sigma^+ sigma^- + sigma^- sigma^+) so no sqrt(-1) enters.
    """
    one, two = R_ONE, RatioElem.rational(2)
    half, quarter = RatioElem.rational(Fraction(1, 2)), RatioElem.rational(Fraction(1, 4))
    mhalf = -half

    # Local two-site operator: sigma+sigma- + sigma-sigma+ flips +- <-> -+.
    fliplocal = {("-+", "+-"): one, ("+-", "-+"): one}
    # sigma^z sigma^z is diagonal with sign product.
    zz = {("++", "++"): one, ("--", "--"): one, ("+-", "+-"): -one, ("-+", "-+"): -one}
    qq = RatioElem(_mono(1, 1) + _mono(1, -1))  # q + 1/q

    H: Op = {}
    for i in range(1, N):
        _add_scaled(H, _local_op(N, i, fliplocal), mhalf * two)
        _add_scaled(H, _local_op(N, i, zz), mhalf * quarter * two * qq)

    qdiff = RatioElem(_mono(1, 1) - _mono(1, -1))  # q - 1/q
    z1 = {("+", "+"): one, ("-", "-"): -one}
    coeff_z1 = mhalf * (qdiff * half - a0 * RatioElem(_mono(1, 0, 0, 1) - _mono(1, 0, 0, -1)))
    _add_scaled(H, _local_op(N, 1, z1), coeff_z1)
    coeff_zN = mhalf * -(qdiff * half - aN * RatioElem(_mono(1, 0, 1) - _mono(1, 0, -1)))
    _add_scaled(H, _local_op(N, N, z1), coeff_zN)

    pm = {("+", "-"): one, ("-", "+"): one}  # sigma+ + sigma-
    _add_scaled(H, _local_op(N, 1, pm), mhalf * two * a0)
    _add_scaled(H, _local_op(N, N, pm), mhalf * two * aN)

    const = (
        quarter * qq * RatioElem.rational(N - 1)
        + a0 * RatioElem(_mono(1, 0, 0, 1) + _mono(1, 0, 0, -1)) * half
        + aN * RatioElem(_mono(1, 0, 1) + _mono(1, 0, -1)) * half
    )
    _add_scaled(H, {s: {s: one} for s in enumerate_strings(N)}, const)
    return H


def pauli_equivalence_check(N: int, a0: RatioElem, aN: RatioElem) -> bool:
    return op_eq(pauli_hamiltonian(N, aN, a0), hamiltonian_matrix(N, aN, a0))


# -- coideal generator X ----------------------------------------------------


def x_matrix_direct(N: int) -> Op:
    """X from its closed action on a standard string: flip site i with
    weight q^{d_{i-1}}, plus the diagonal q^{d_N} [Q;0]."""
    s = qQ_bracket(0)  # (Q - 1/Q)/(q - 1/q)
    out: Op = {}
    for eps in enumerate_strings(N):
        col: Vec = {}
        d = 0
        for i, c in enumerate(eps, start=1):
            col[flip(eps, {i: "-" if c == "+" else "+"})] = RatioElem(_mono(1, d))
            d += 1 if c == "+" else -1
        cur = col.get(eps)
        diag = s * RatioElem(_mono(1, d))
        col[eps] = diag if cur is None else cur + diag
        out[eps] = col
    return out


def x_matrix_coproduct(N: int) -> Op:
    """X built recursively from Delta(X) = K (x) X + (1/q) KE (x) 1 + F (x) 1."""
    s = qQ_bracket(0)
    if N == 1:
        return {
            "+": {"-": R_ONE, "+": s * RatioElem(_mono(1, 1))},
            "-": {"+": R_ONE, "-": s * RatioElem(_mono(1, -1))},
        }
    inner = x_matrix_coproduct(N - 1)
    out: Op = {}
    for eps in enumerate_strings(N):
        head, tail = eps[0], eps[1:]
        k = RatioElem(_mono(1, 1 if head == "+" else -1))
        col: Vec = {}
        for row_tail, c in inner[tail].items():
            col[head + row_tail] = c * k
        flipped = ("-" if head == "+" else "+") + tail
        cur = col.get(flipped)
        col[flipped] = R_ONE if cur is None else cur + R_ONE
        out[eps] = col
    return out


def x_matrix_standard(N: int) -> Op:
    """X, checked: raises if the direct and coproduct constructions differ."""
    direct = x_matrix_direct(N)
    if not op_eq(direct, x_matrix_coproduct(N)):
        raise AssertionError("the two constructions of X disagree")
    return direct


def commutation_check(N: int) -> dict[str, bool]:
    """[e_g, X] = 0 for bulk and right-boundary generators; e0 fails."""
    X = generator_matrix(N, "X")
    report = {}
    for gen in generator_names(N):
        E = generator_matrix(N, gen)
        commutes = op_eq(op_mul(E, X), op_mul(X, E))
        if gen == "e0":
            report["[e0, X] != 0"] = not commutes
        else:
            report[f"[{gen}, X] = 0"] = commutes
    return report
