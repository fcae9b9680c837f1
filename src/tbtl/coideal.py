"""The coideal generator as a cached matrix on the decorated bases (its
diagram rules are in kl_action), its spectrum, and the combinatorial
classification that predicts the multiplicities."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
import random

from .basis import build_diagram, enumerate_strings, read_only, specialize
from .ring import R_ZERO, SpecPoint, qQ_bracket
from .algebra import Op
from .kl_action import kl_operator


@lru_cache(maxsize=None)
def x_matrix_kl(tag: str, N: int, M: int | None = None) -> Op:
    """X on a decorated basis from the diagram rules (apply_X_kl); the
    conjugated-matrix oracle is crosscheck_vs_standard(tag, N, "X", M).
    Read-only, since every caller shares it."""
    return read_only(kl_operator(tag, N, "X", M))


# -- BI classification -------------------------------------------------------


def classify_bi(N: int, M: int) -> dict[int, int]:
    """Histogram of the extreme X-expansion index over all BI diagrams."""
    hist: dict[int, int] = {}
    for s in enumerate_strings(N):
        D = build_diagram("BI", s, M)
        n_up = len(D.ups)
        if D.unpaired_down is not None:
            e = -(n_up + 1)
        else:
            e = n_up + D.first_label() - 1
        hist[e] = hist.get(e, 0) + 1
    return hist


def check_bi_multiplicity_histogram(N: int, M: int) -> bool:
    hist = classify_bi(N, M)
    expected = {}
    for i in range(N + 1):
        key = N + M - 2 * i
        expected[key] = expected.get(key, 0) + comb(N, i)
    return hist == expected


# -- multiplicities at generic points ----------------------------------------


def _integer_row(row: dict[int, Fraction]) -> tuple[int, dict[int, int]]:
    """(scale, the row times scale), where scale is the lcm of the row's
    denominators."""
    scale = lcm(*(v.denominator for v in row.values()))
    return scale, {k: v.numerator * (scale // v.denominator) for k, v in row.items()}


def _integer_rank(rows: list[dict[int, int]]) -> int:
    """Exact rank over Q of a sparse integer matrix, by integer elimination.

    The rows are eliminated sparsest first, each against the pivot of its
    smallest column.  A step replaces the row by ``a*row - b*pivot``, where
    ``a`` and ``b`` are the pivot's and the row's entries in that column over
    their gcd (fraction-free elimination, Bareiss 1968); a row that becomes a
    pivot is divided by its content first, which keeps the entries short.
    Every step multiplies the row by a nonzero integer or adds a multiple of
    a pivot, so the number of pivots is the rank over Q.  The input rows are
    not modified, so they may be shared.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted((r for r in rows if r), key=len):
        while row:
            j = min(row)
            pivot = pivots.get(j)
            if pivot is None:
                g = gcd(*row.values())
                pivots[j] = {k: v // g for k, v in row.items()}
                break
            g = gcd(pivot[j], row[j])
            a, b = pivot[j] // g, row[j] // g
            row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                nv = row.get(k, 0) - b * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
    return len(pivots)


def eval_op_at(A: Op, p: SpecPoint, order: list[str]):
    """A at the point p as sparse rows {row index: {column index: value}},
    indices in order, zero values left out.

    An operator holds few distinct entries (X on the BI M=2, N=8 basis has
    630 entries and 9 values), so each value is evaluated once per call,
    kept in a dict keyed by (num, den): a RatioElem is unhashable, but equal
    keys are equal numerators over the same sorted atoms, which evaluate
    alike.  Entries are read in A's order and a value that raises is not
    kept, so the first entry whose atom vanishes at p still raises
    ZeroDenominator.
    """
    index = {s: i for i, s in enumerate(order)}
    values: dict[tuple, Fraction] = {}
    rows: dict[int, dict[int, Fraction]] = {}
    for col, column in A.items():
        jc = index[col]
        for row, c in column.items():
            key = (c.num, c.den)
            v = values.get(key)
            if v is None:
                v = values[key] = c.evaluate(p)
            if v:
                rows.setdefault(index[row], {})[jc] = v
    return rows


def random_generic_point(rng: random.Random) -> SpecPoint:
    def draw():
        while True:
            num = rng.randint(2, 97)
            den = rng.randint(2, 97)
            f = Fraction(num, den)
            if f != 1:
                return f

    return SpecPoint(draw(), draw(), draw())


def candidate_eigenvalues(tag: str, N: int, M: int | None):
    """(index, symbolic eigenvalue) pairs claimed by the spectrum theorems:
    [Q; N - 2i] at the family's parameters, which for BI is [N + M - 2i]."""
    return list(specialize({i: qQ_bracket(N - 2 * i) for i in range(N + 1)}, tag, M).items())


def eigen_multiplicities(tag: str, N: int, M: int | None = None, seed: int = 7):
    """Multiplicity of each claimed eigenvalue at a generic rational point.

    Computed as the kernel dimension of X - lambda at the point, from its
    rank over Q (exact integer elimination, sparsest rows first; see
    _integer_rank).  The first point drawn is generic for the candidates:
    random_generic_point draws q, Q > 0 with q != 1, so their one atom
    q - 1/q is nonzero, and [Q; n] = (x - 1/x)/(q - 1/q) with x = Q q^n is
    strictly increasing in x > 0, so distinct n give distinct values (for
    BI, x = q^(N+M-2i)).  An entry of X that cannot be evaluated at the
    point raises.  The multiplicities are returned as found: if they do not
    add up to 2^N, check_multiplicity_theorem fails.
    """
    X = x_matrix_kl(tag, N, M)
    order = enumerate_strings(N)
    dim = len(order)
    p = random_generic_point(random.Random(seed))
    values = [(i, lam.evaluate(p)) for i, lam in candidate_eigenvalues(tag, N, M)]
    # Only the diagonal of X - lambda depends on lambda, so each row's
    # off-diagonal part is scaled to integers once per point.  The diagonal
    # holds few distinct values (9 on the BI M=2, N=8 basis), each numbered
    # once per point, so that diag - lambda is worked out once per distinct
    # value for each lambda.
    rows_all = eval_op_at(X, p, order)
    diagonal: dict[Fraction, int] = {}
    parts = []
    for k in range(dim):
        row = rows_all.get(k, {})
        scale, off = _integer_row({j: v for j, v in row.items() if j != k})
        parts.append((k, diagonal.setdefault(row.get(k, Fraction(0)), len(diagonal)), scale, off))
    mult = {}
    for i, lam in values:
        diffs = [diag - lam for diag in diagonal]
        rows = []
        for k, d_index, scale, off in parts:
            d = diffs[d_index]
            if not d:
                rows.append(off)
                continue
            den = lcm(scale, d.denominator)
            m = den // scale
            row = {j: m * v for j, v in off.items()}
            row[k] = d.numerator * (den // d.denominator)
            rows.append(row)
        mult[i] = dim - _integer_rank(rows)
    return mult, p


def check_multiplicity_theorem(
    tag: str, N: int, M: int | None = None, seeds=(7, 2026)
) -> bool:
    """The binomial multiplicity claim at two independent generic points."""
    for seed in seeds:
        mult, _ = eigen_multiplicities(tag, N, M, seed=seed)
        for i in range(N + 1):
            if mult[i] != comb(N, i):
                return False
    return True


def check_triangular_spectrum(tag: str, N: int) -> bool:
    """For the families with triangular X (BII, BIII): X is triangular in
    the string order, and its diagonal holds each claimed eigenvalue
    [Q; N - 2i] exactly C(N, i) times.  Which diagram carries which value is
    the xkl row's claim, checked against the conjugated matrix."""
    if tag not in ("BII", "BIII"):
        raise ValueError("triangular spectrum check applies to BII/BIII")
    X = x_matrix_kl(tag, N, None)
    order = enumerate_strings(N)
    pos = {s: i for i, s in enumerate(order)}
    if any(pos[s2] > pos[s] for s, col in X.items() for s2 in col):
        return False  # not lower triangular in this order
    diagonal = [X[s].get(s, R_ZERO) for s in order]
    return all(
        sum(d == lam for d in diagonal) == comb(N, i)
        for i, lam in candidate_eigenvalues(tag, N, None)
    )
