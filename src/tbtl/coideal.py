"""The coideal generator as a cached matrix on the decorated bases (its
diagram rules are in kl_action), its spectrum, and the combinatorial
classification that predicts the multiplicities."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
import random

from .basis import build_diagram, enumerate_strings
from .ring import (
    RatioElem,
    SpecPoint,
    ZeroDenominator,
    qQ_bracket,
    qint,
)
from .algebra import Op
from .kl_action import kl_operator


@lru_cache(maxsize=None)
def x_matrix_kl(tag: str, N: int, M: int | None = None) -> Op:
    """X on a decorated basis from the diagram rules (apply_X_kl); the
    conjugated-matrix oracle is crosscheck_vs_standard(tag, N, "X", M)."""
    return kl_operator(tag, N, "X", M)


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
    index = {s: i for i, s in enumerate(order)}
    rows: dict[int, dict[int, Fraction]] = {}
    for col, column in A.items():
        jc = index[col]
        for row, c in column.items():
            v = c.evaluate(p)
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
    """(index, symbolic eigenvalue) pairs claimed by the spectrum theorems."""
    out = []
    for i in range(N + 1):
        if tag == "BI":
            out.append((i, RatioElem.from_ring(qint(N + M - 2 * i))))
        else:
            out.append((i, qQ_bracket(N - 2 * i)))
    return out


def eigen_multiplicities(
    tag: str, N: int, M: int | None = None, seed: int = 7, max_resample: int = 8
):
    """Multiplicity of each claimed eigenvalue at a generic rational point.

    Computed as the kernel dimension of X - lambda at the point, from its
    rank over Q (exact integer elimination, sparsest rows first; see
    _integer_rank); degenerate sample points (colliding candidate
    eigenvalues) are resampled.  The multiplicities are returned as found:
    if they do not add up to 2^N, check_multiplicity_theorem fails.
    """
    rng = random.Random(seed)
    X = x_matrix_kl(tag, N, M)
    order = enumerate_strings(N)
    dim = len(order)
    cands = candidate_eigenvalues(tag, N, M)
    for _ in range(max_resample):
        p = random_generic_point(rng)
        try:
            values = [(i, lam.evaluate(p)) for i, lam in cands]
        except ZeroDenominator:
            continue
        if len({v for _, v in values}) != len(values):
            continue  # eigenvalue collision; resample
        # Only the diagonal of X - lambda depends on lambda, so each row's
        # off-diagonal part is scaled to integers once per point.
        rows_all = eval_op_at(X, p, order)
        parts = []
        for k in range(dim):
            row = rows_all.get(k, {})
            scale, off = _integer_row({j: v for j, v in row.items() if j != k})
            parts.append((k, row.get(k, Fraction(0)), scale, off))
        mult = {}
        for i, lam in values:
            rows = []
            for k, diag, scale, off in parts:
                d = diag - lam
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
    raise RuntimeError("no generic sample point found")


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
    """For the families with triangular X, read multiplicities off the
    diagonal symbolically."""
    if tag not in ("BII", "BIII"):
        raise ValueError("triangular spectrum check applies to BII/BIII")
    X = x_matrix_kl(tag, N, None)
    order = enumerate_strings(N)
    pos = {s: i for i, s in enumerate(order)}
    counts: dict[int, int] = {}
    for s, col in X.items():
        for s2 in col:
            if pos[s2] > pos[s]:
                return False  # not lower triangular in this order
        D = build_diagram(tag, s)
        if tag == "BIII":
            n = len(D.ups) - len(D.circles)
        else:
            n = -len(D.ups) - 1 if D.leftmost_mark() == "o" else len(D.ups)
        expected = qQ_bracket(n)
        if col.get(s, RatioElem.from_int(0)) != expected:
            return False
        counts[n] = counts.get(n, 0) + 1
    for i in range(N + 1):
        if counts.get(N - 2 * i, 0) != comb(N, i):
            return False
    return True
