"""Standard-basis matrices of the loop-model generators and the coideal
generator, with relation, quotient, Hamiltonian and commutant checks, each
an identity between words of operators checked by identity_mismatches.  The
relation and commutant rows check theirs at a base N and decide larger N by
locality.

Operators are stored column-sparse: {column string: {row string: coeff}}.
Site 1 is the leftmost tensor factor and the per-site basis order is
(v_1, v_{-1}), matching '+' and '-'.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache

from .basis import _accumulate, _products, _sums, enumerate_strings, flip, read_only
from .ring import (
    RatioElem,
    RingElem,
    R_ONE,
    R_ZERO,
    qQ_bracket,
)

Vec = dict[str, RatioElem]
Op = dict[str, Vec]
Word = tuple[Op, ...]  # A_1 A_2 ... A_k, applied right to left
Side = list[tuple[RatioElem, Word]]  # sum_k c_k w_k

_mono = RingElem.mono


def op_apply(A: Op, v: Vec) -> Vec:
    """A v, the one way to apply an operator to a vector: the products
    accumulated by _products, then wrapped once by _sums.

    The result has the value of the sum of the products c * a and no zero
    entry, and it shares no term dict with A or v; neither input is changed.
    Every column of v with a nonzero entry must be a column of A.
    """
    plain: dict[str, dict] = {}
    fractional: dict[str, dict] = {}
    _products(A, v, 1, plain, fractional)
    return _sums(plain, fractional)


def apply_word(word: Word, v: Vec) -> Vec:
    """w v for a word w = (A_1, ..., A_k) of operators, applied right to
    left: A_1 (... (A_k v)).  A on a unit vector {s: R_ONE} is column s of
    A, read rather than computed, so the result may be a column of an
    operator: callers only read it."""
    for A in reversed(word):
        unit = len(v) == 1 and next(iter(v.values())) is R_ONE
        v = A[next(iter(v))] if unit else op_apply(A, v)
    return v


def _apply_side(side: Side, v: Vec) -> Vec:
    if len(side) == 1 and side[0][0] is R_ONE:
        return apply_word(side[0][1], v)
    out: Vec = {}
    for c, word in side:
        for row, x in apply_word(word, v).items():
            _accumulate(out, row, c * x)
    return out


def vector_mismatches(left: Vec, right: Vec):
    """Yield (row, left entry, right entry) for each row where the two
    vectors differ; a missing entry counts as zero."""
    for row in {**left, **right}:
        a, b = left.get(row, R_ZERO), right.get(row, R_ZERO)
        if a != b:
            yield row, a, b


def identity_mismatches(
    columns: Mapping[str, Vec] | Iterable[tuple[str, Vec]], lhs: Side, rhs: Side
):
    """Where lhs == rhs fails for two sides sum_k c_k w_k (see apply_word):
    the one way to compare two operators or two vectors.

    columns maps labels to start vectors, or is an iterable of (label,
    start vector) pairs, which is read one pair at a time, so that a
    caller can build each start vector as it is read.  One column at a
    time, on its start vector v (a unit column of unit_columns, a vector
    such as Psi, or a row of an operator), lhs v - rhs v is accumulated
    by _products into one set of term dicts: a word A_1 A_2 ... A_k adds
    +-A_1 u, where u is A_2 ... A_k v (apply_word) scaled by c_k, and an
    empty word adds +-c_k v term by term, with c_k as _products' scalar
    operator, so no scaled copy of v is built.  The column passes when
    every row of that signed sum is zero under exact RatioElem addition
    (_sums), so a passing column builds neither side.  Only a column that
    does not pass is applied side by side, and it yields (column, row,
    left, right) at its first differing row.  No product is built in full, and a caller
    that needs only a verdict stops at the first differing column.
    """
    for label, v in columns.items() if isinstance(columns, Mapping) else columns:
        plain: dict[str, dict] = {}
        fractional: dict[str, dict] = {}
        for sign, side in ((1, lhs), (-1, rhs)):
            for c, word in side:
                u = apply_word(word[1:], v)
                if word and c is not R_ONE:
                    u = {row: c * x for row, x in u.items()}
                _products(word[0] if word else c, u, sign, plain, fractional)
        if _sums(plain, fractional):
            first = next(vector_mismatches(_apply_side(lhs, v), _apply_side(rhs, v)))
            yield (label, *first)


def unit_columns(N: int) -> dict[str, Vec]:
    """{s: the unit vector at s} over the basis strings of size N."""
    return {s: {s: R_ONE} for s in enumerate_strings(N)}


def _holds(N: int, lhs: Side, rhs: Side) -> bool:
    """The brute force: lhs == rhs on every unit column of size N, stopping
    at the first column where they differ."""
    return not any(identity_mismatches(unit_columns(N), lhs, rhs))


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
# K = diag(q, 1/q), the site factor of X's product form (x_matrix_direct)
_K = {("+", "+"): RatioElem(_mono(1, 1)), ("-", "-"): RatioElem(_mono(1, -1))}


def generator_names(N: int) -> list[str]:
    return [f"e{i}" for i in range(1, N)] + ["eN", "e0"]


def _local_rule(N: int, gen: str):
    """(first site, local table) of e1..e{N-1}, eN or e0."""
    if gen == "eN":
        return N, _E_N
    if gen == "e0":
        return 1, _E_0
    return int(gen[1:]), _E_BULK


@lru_cache(maxsize=None)
def generator_matrix(N: int, gen: str) -> Op:
    """Standard-basis matrix on V_1^{⊗N} of e1..e{N-1}, eN, e0 or X, by name;
    read-only, since every caller shares it."""
    if gen == "X":
        return read_only(x_matrix_standard(N))
    if gen not in generator_names(N):
        raise ValueError(f"no generator {gen!r} at N={N}")
    return read_only(_local_op(N, *_local_rule(N, gen)))


def _generators_are_local(N: int) -> bool:
    """The locality premise: every column of each e_g at N equals its local
    rule laid on its sites, one O(N 2^N) read."""
    return all(
        generator_matrix(N, g) == _local_op(N, *_local_rule(N, g)) for g in generator_names(N)
    )


def _relation_rows(N: int) -> list[tuple[str, str | None, Side, Side]]:
    """The defining relations at N as rows (label, kind, lhs, rhs).  Rows of
    one kind are one relation laid on different sites; kind None marks a
    commuting pair, whose generators act on disjoint sites."""
    names = ["e0", *(f"e{i}" for i in range(1, N)), "eN"]  # by site
    e = [generator_matrix(N, g) for g in names]

    def w(*sites, c=R_ONE):
        return [(c, tuple(e[k] for k in sites))]

    def sym(*x):  # m + 1/m for the monomial m = q^x[0] Q^x[1] Q0^x[2]
        return RatioElem(_mono(1, *x) + _mono(1, *(-k for k in x)))

    loops = {0: ("Q0", sym(0, 0, 1)), N: ("Q", sym(0, 1))}
    rows = []
    for k, g in enumerate(names):
        x, loop = loops.get(k, ("q", sym(1)))
        rows.append((f"{g}^2 = -({x}+1/{x}) {g}", f"loop {x}", w(k, k), w(k, c=-loop)))
    for i in range(1, N - 1):
        rows.append((f"e{i} e{i+1} e{i} = e{i}", "e_i e_i+1 e_i", w(i, i + 1, i), w(i)))
        rows.append(
            (f"e{i+1} e{i} e{i+1} = e{i+1}", "e_i+1 e_i e_i+1", w(i + 1, i, i + 1), w(i + 1))
        )
    last = N - 1
    rows.append(("e(N-1) eN e(N-1) = (q/Q + Q/q) e(N-1)", "e_N-1 eN e_N-1",
                 w(last, N, last), w(last, c=sym(1, -1))))
    rows.append(("e1 e0 e1 = (q/Q0 + Q0/q) e1", "e1 e0 e1", w(1, 0, 1), w(1, c=sym(1, 0, -1))))
    rows += [
        (f"[{a}, {b}] = 0", None, w(j, k), w(k, j))
        for j, a in enumerate(names)
        for k, b in enumerate(names[j + 2:], start=j + 2)
    ]
    return rows


def check_defining_relations(N: int) -> dict[str, bool]:
    """Every defining relation of the two-boundary algebra at N, as
    {label: holds}.  With e0 at site 0 and eN at site N, generators two or
    more sites apart commute.

    For N <= 3 each row is checked on every unit column.  Above that the
    rows are decided by locality.  Lemma: A -> 1 ⊗ A ⊗ 1 is an injective
    algebra map, so a relation among operators laid on sites holds on N
    sites exactly when it holds on the sites it touches.  Every relation
    touches at most three sites, so a row holds at N exactly when the same
    relation holds at the base N = 3, and a commuting pair, whose
    generators touch disjoint sites, holds outright.  Premise: every column
    of each e_g at N and at 3 equals its local rule (_E_BULK, _E_N, _E_0)
    laid on its sites; if it fails, no row holds.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    rows = _relation_rows(N)
    if N <= 3:
        return {label: _holds(N, lhs, rhs) for label, _, lhs, rhs in rows}
    base: dict[str | None, bool] = {}  # kind -> every base row of that kind holds
    for _, kind, lhs, rhs in _relation_rows(3):
        base[kind] = base.get(kind, True) and _holds(3, lhs, rhs)
    local = _generators_are_local(3) and _generators_are_local(N)
    return {label: local and (kind is None or base[kind]) for label, kind, _, _ in rows}


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
    closed form.  I and J are built once, column by column; each identity
    is then checked on the columns of the word it ends in."""
    words = [tuple(generator_matrix(N, g) for g in names) for names in quotient_words(N)]
    I, J = ({s: apply_word(word, v) for s, v in unit_columns(N).items()} for word in words)
    alpha = [(RatioElem(alpha_closed_form(N)), ())]
    return (
        any(I.values())
        and not any(identity_mismatches(I, [(R_ONE, (I, J))], alpha))
        and not any(identity_mismatches(J, [(R_ONE, (J, I))], alpha))
    )


# -- Hamiltonians ----------------------------------------------------------


def hamiltonian_terms(N: int, aN: RatioElem, a0: RatioElem) -> list[tuple[RatioElem, Op]]:
    """The (coupling a_g, e_g) pairs of H = -sum a_g e_g, with a_g = 1 for
    e1..e{N-1}, aN for eN and a0 for e0: the one place that knows H's
    couplings."""
    coupling = {"eN": aN, "e0": a0}
    return [(coupling.get(gen, R_ONE), generator_matrix(N, gen)) for gen in generator_names(N)]


def pauli_hamiltonian(N: int, aN: RatioElem, a0: RatioElem) -> Side:
    """The spin-chain form of the two-boundary Hamiltonian, as a side of
    scaled local operators and the identity (the empty word).

    sigma^x sigma^x + sigma^y sigma^y is assembled as
    2(sigma^+ sigma^- + sigma^- sigma^+) so no sqrt(-1) enters.
    """
    one = R_ONE
    half, quarter = RatioElem.rational(Fraction(1, 2)), RatioElem.rational(Fraction(1, 4))
    qq = RatioElem(_mono(1, 1) + _mono(1, -1))  # q + 1/q
    qdiff = RatioElem(_mono(1, 1) - _mono(1, -1))  # q - 1/q
    dQ0 = RatioElem(_mono(1, 0, 0, 1) - _mono(1, 0, 0, -1))  # Q0 - 1/Q0
    dQ = RatioElem(_mono(1, 0, 1) - _mono(1, 0, -1))  # Q - 1/Q

    # sigma+sigma- + sigma-sigma+ flips +- <-> -+; sigma^z sigma^z is diagonal
    # with sign product; sigma+ + sigma- is sigma^x.
    flip2 = {("-+", "+-"): one, ("+-", "-+"): one}
    zz = {("++", "++"): one, ("--", "--"): one, ("+-", "+-"): -one, ("-+", "-+"): -one}
    z = {("+", "+"): one, ("-", "-"): -one}
    x = {("+", "-"): one, ("-", "+"): one}

    H: Side = []
    for i in range(1, N):
        H += [(-one, (_local_op(N, i, flip2),)), (-quarter * qq, (_local_op(N, i, zz),))]
    H += [
        (-half * (half * qdiff - a0 * dQ0), (_local_op(N, 1, z),)),
        (half * (half * qdiff - aN * dQ), (_local_op(N, N, z),)),
        (-a0, (_local_op(N, 1, x),)),
        (-aN, (_local_op(N, N, x),)),
    ]
    const = (
        quarter * qq * RatioElem.rational(N - 1)
        + a0 * RatioElem(_mono(1, 0, 0, 1) + _mono(1, 0, 0, -1)) * half
        + aN * RatioElem(_mono(1, 0, 1) + _mono(1, 0, -1)) * half
    )
    H.append((const, ()))
    return H


def pauli_equivalence_check(N: int, a0: RatioElem, aN: RatioElem) -> bool:
    """pauli_hamiltonian == -sum a_g e_g over hamiltonian_terms."""
    H = [(-a, (E,)) for a, E in hamiltonian_terms(N, aN, a0)]
    return _holds(N, pauli_hamiltonian(N, aN, a0), H)


# -- coideal generator X ----------------------------------------------------


def x_matrix_direct(N: int) -> Op:
    """X from its closed action on a standard string: flip site i with
    weight q^{d_{i-1}}, plus the diagonal q^{d_N} [Q;0]."""
    s = qQ_bracket(0)  # (Q - 1/Q)/(q - 1/q)
    weight = {d: RatioElem(_mono(1, d)) for d in range(-N, N + 1)}  # q^d, built once per d
    diagonal = {d: s * x for d, x in weight.items()}
    out: Op = {}
    for eps in enumerate_strings(N):
        col: Vec = {}
        d = 0
        for i, c in enumerate(eps, start=1):
            col[flip(eps, {i: "-" if c == "+" else "+"})] = weight[d]
            d += 1 if c == "+" else -1
        col[eps] = diagonal[d]  # every flip above differs from eps
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
        d = 1 if head == "+" else -1  # K's entry q^d, an exponent shift
        col: Vec = {}
        for row_tail, c in inner[tail].items():
            shifted = {(e + d, f, g): x for (e, f, g), x in c.num.terms.items()}
            col[head + row_tail] = RatioElem(RingElem(shifted), c.den)
        col[("-" if head == "+" else "+") + tail] = R_ONE  # no row above has this head
        out[eps] = col
    return out


def x_matrix_standard(N: int) -> Op:
    """X, checked: raises if the direct and coproduct constructions differ,
    naming the first (column, row) where they do."""
    direct = x_matrix_direct(N)
    coproduct = [(R_ONE, (x_matrix_coproduct(N),))]
    for col, row, _, _ in identity_mismatches(unit_columns(N), [(R_ONE, (direct,))], coproduct):
        raise AssertionError(f"the two constructions of X disagree at column {col}, row {row}")
    return direct


def _commutes_with_X(N: int, gen: str) -> bool:
    E, X = generator_matrix(N, gen), generator_matrix(N, "X")
    return _holds(N, [(R_ONE, (E, X))], [(R_ONE, (X, E))])


def commutation_check(N: int) -> dict[str, bool]:
    """[e_g, X] = 0 for bulk and right-boundary generators; [e0, X] != 0 is
    checked directly at N and stops at its first differing column.

    For N <= 2 each row is checked on every unit column.  Above that the
    bulk and right-boundary rows are decided by locality.  Lemma: X has
    the product form sum_j K^{⊗(j-1)} ⊗ sigma^x_j ⊗ 1 + [Q;0] K^{⊗N} with
    K = diag(q, 1/q), a matrix product operator of bond dimension 2 whose
    columns are x_matrix_direct's rule, so X_N = sigma^x ⊗ 1 + K ⊗ X_{N-1}
    and X_1 = sigma^x + [Q;0] K.  Hence [e_i, X_N] = K^{⊗(i-1)} ⊗ [e_1, X_m]
    with m = N - i + 1, and [e_N, X_N] = K^{⊗(N-1)} ⊗ [_E_N, X_1]; K is
    invertible, so:
      - [e_N, X] = 0 and [e_{N-1}, X] = 0 at N hold exactly when they hold
        at the base N = 2;
      - for i < N - 1, [e_1, X_m] = [e, sigma^x ⊗ 1 + K ⊗ sigma^x] ⊗ 1 +
        [e, K ⊗ K] ⊗ X_{m-2}, and [e_1, X_2] is the first term plus
        [Q;0] [e, K ⊗ K], so [e_i, X] = 0 holds exactly when [e_1, X] = 0
        at N = 2 and [e, K ⊗ K] = 0 for the local e = _E_BULK.
    Premises: every column of each e_g at N and at 2 equals its local rule,
    as for check_defining_relations, and every column of X at N and at 2
    equals the product-form rule; if they fail, no bulk or right-boundary
    row holds.
    """
    if N > 2:
        local = all(
            _generators_are_local(n) and generator_matrix(n, "X") == x_matrix_direct(n)
            for n in (N, 2)
        )
        last = local and _commutes_with_X(2, "e1")
        decided = {f"e{N - 1}": last, "eN": local and _commutes_with_X(2, "eN")}
        E, K1, K2 = _local_op(2, 1, _E_BULK), _local_op(2, 1, _K), _local_op(2, 2, _K)
        bulk = last and _holds(2, [(R_ONE, (E, K1, K2))], [(R_ONE, (K1, K2, E))])
    report = {}
    for gen in generator_names(N):
        if gen == "e0":
            report["[e0, X] != 0"] = not _commutes_with_X(N, "e0")
        elif N <= 2:
            report[f"[{gen}, X] = 0"] = _commutes_with_X(N, gen)
        else:
            report[f"[{gen}, X] = 0"] = decided.get(gen, bulk)
    return report
