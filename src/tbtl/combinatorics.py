"""Correlation functions, component sums, matrix enumerations and the
conjecture scorecards that tie them together.

Conjecture checkers report agreement; they never raise on disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .basis import make_diagram
from .ground_state import psi_vector, psi_component
from .ring import ONE, R_ONE, R_ZERO, ZERO, RatioElem, RingElem, SpecPoint

_mono = RingElem.mono


# -- correlation functions ----------------------------------------------------


def correlation_closed(N: int, alphas, plus, minus) -> RatioElem:
    """<prod alpha_i prod sigma^{+-}_j> on the factorized standard ground state."""
    out = R_ONE
    for i in alphas:
        num = _mono(1, 2 * (N - i), 2)
        den = ONE + _mono(1, 2 * (N - i), 2)
        out = out * RatioElem(num, (den,))
    for j in list(plus) + list(minus):
        num = _mono(1, N - j, 1)
        den = ONE + _mono(1, 2 * (N - j), 2)
        out = out * RatioElem(num, (den,))
    return out


def correlation_brute(N: int, alphas, plus, minus) -> tuple[RatioElem, RatioElem]:
    """(<Psi0|O|Psi0>, <Psi0|Psi0>) from the explicit component sum; the
    correlation is their ratio."""
    comps = psi_vector("standard", N).components()
    num = den = R_ZERO
    alphas, plus, minus = set(alphas), set(plus), set(minus)
    for s, c in comps.items():
        den = den + c * c
        # O|s> : alpha_i projects onto '+', sigma^+_j sends '-' to '+',
        # sigma^-_j sends '+' to '-'
        if any(s[i - 1] != "+" for i in alphas):
            continue
        if any(s[j - 1] != "-" for j in plus):
            continue
        if any(s[j - 1] != "+" for j in minus):
            continue
        chars = list(s)
        for j in plus:
            chars[j - 1] = "+"
        for j in minus:
            chars[j - 1] = "-"
        target = "".join(chars)
        num = num + comps[target] * c
    return num, den


def correlation_check(N: int, alphas, plus, minus) -> bool:
    closed = correlation_closed(N, alphas, plus, minus)
    num, den = correlation_brute(N, alphas, plus, minus)
    # closed == num/den  <=>  closed * den == num
    return closed * den == num


# -- sum rules ----------------------------------------------------------------


def sum_rule(tag: str, N: int, M: int | None = None, p: SpecPoint | None = None) -> Fraction:
    """Sum of the ground-state components at p (default q = Q = Q0 = 1)."""
    if p is None:
        p = SpecPoint(1, 1, 1)
    return sum(psi_vector(tag, N, M).evaluate(p).values(), Fraction(0))


# name -> (first index n0, x_{n0}, x_{n0+1}, a, b) for x_k = a x_{k-1} + b(k) x_{k-2}
_OEIS = {
    "A005425": (0, 1, 2, 2, lambda k: k - 1),
    "A000902": (1, 1, 3, 2, lambda k: 2 * k - 2),
    "A083886": (1, 1, 3, 3, lambda k: 2 * k - 4),
}


def oeis_sequence(name: str, n: int) -> int:
    """x_n of one of the three sequences in _OEIS; an n below the first
    index raises ValueError."""
    if name not in _OEIS:
        raise ValueError(name)
    n0, x, y, a, b = _OEIS[name]
    if n < n0:
        raise ValueError(f"{name} starts at n={n0}")
    for k in range(n0 + 2, n + 1):
        x, y = y, a * y + b(k) * x
    return x if n == n0 else y


TABLE_1 = {
    "A": [2, 5, 14, 43, 142, 499, 1850, 7193, 29186],
    ("BI", 1): [3, 10, 38, 156, 692, 3256, 16200, 84496, 460592],
    ("BI", 2): [3, 11, 44, 192, 892, 4396, 22752, 123248, 695024],
    ("BI", 3): [3, 11, 45, 200, 952, 4796, 25412, 140720, 811280],
    ("BI", "inf"): [3, 11, 45, 201, 963, 4899, 26253, 147345, 862083],
    "BII": [3, 9, 33, 129, 555, 2529, 12273, 62481, 333603],
    "BIII": [3, 11, 45, 201, 963, 4899, 26253, 147345, 862083],
}


def table_sums(n_max: int) -> list:
    """(TABLE_1 key, row label, sums at q = Q = 1 for N = 1..n_max), one
    triple per family of the table; M = inf means M = N + 1.  Every cell is
    evaluated at one point, so each atom's value is computed once."""
    p = SpecPoint(1, 1, 1)
    out = []
    for key in TABLE_1:
        tag, M = key if isinstance(key, tuple) else (key, None)
        label = tag if M is None else f"{tag}(M={M})"
        sums = [sum_rule(tag, N, N + 1 if M == "inf" else M, p) for N in range(1, n_max + 1)]
        out.append((key, label, sums))
    return out


def check_table1(n_max: int = 9) -> dict:
    """Reproduce the tabulated component sums at q = Q = 1 for N <= n_max;
    the table stops at N = 9."""
    report = {}
    for key, _, sums in table_sums(min(n_max, len(TABLE_1["A"]))):
        for N, (val, want) in enumerate(zip(sums, TABLE_1[key]), start=1):
            report[(key, N)] = (val == want, val, want)
    return report


def check_sum_conjectures(n_max: int = 9) -> dict:
    """OEIS identifications of the component sums."""
    out = {}
    for N in range(1, n_max + 1):
        out[("A", N)] = sum_rule("A", N) == oeis_sequence("A005425", N)
        out[("BI1", N)] = sum_rule("BI", N, 1) == oeis_sequence("A000902", N + 1)
        c = oeis_sequence("A083886", N + 1)
        out[("BIinf", N)] = sum_rule("BI", N, N + 1) == c
        out[("BIII", N)] = sum_rule("BIII", N) == c
    return out


# -- q = 1 decompositions ------------------------------------------------------


def _strings_with_pluses(N: int, k: int):
    for pos in combinations(range(N), k):
        chars = ["-"] * N
        for p_ in pos:
            chars[p_] = "+"
        yield "".join(chars)


def decompose_sum(tag: str, N: int, degrees=None) -> dict[int, int]:
    """Coefficients S_{N,i} of the sum at q = 1: of Q^i for type A, of
    (Q + 1/Q)^i for BII and BIII.

    A component with i pluses is c Q^i (type A) or c (Q + 1/Q)^i (BII, BIII),
    so S_{N,i} sums the values at q = Q = 1 of the components with i pluses,
    divided by 2^i for BII and BIII.
    """
    if tag not in ("A", "BII", "BIII"):
        raise ValueError(tag)
    p = SpecPoint(1, 1, 1)
    degrees = range(N + 1) if degrees is None else degrees
    out = {}
    for i in degrees:
        shifts, Q_exp = (0, i) if tag == "A" else (i, 0)
        total = Fraction(0)
        for s in _strings_with_pluses(N, i):
            f = psi_component(tag, make_diagram(tag, s))
            # one numerator atom in Q, Q q^k + Q^-1 q^-k, per shift
            if sum(any(m[1] for m in a.terms) for a in f.num) != shifts or f.Q_exp != Q_exp:
                raise RuntimeError(f"{tag} component {s} is not c Q^{i} or c (Q + 1/Q)^{i}")
            total += f.evaluate(p)
        total /= 2**shifts
        if total.denominator != 1:
            raise RuntimeError(f"S_{{{N},{i}}} = {total} of {tag} is not an integer")
        out[i] = int(total)
    return out


def typeA_P_polynomial(i: int, N: int) -> Fraction:
    p = {
        1: lambda n: n + 1,
        2: lambda n: n * n - n + 2,
        3: lambda n: n**3 - 6 * n**2 + 17 * n - 16,
        4: lambda n: n**4 - 14 * n**3 + 83 * n**2 - 230 * n + 248,
    }[i]
    pref = Fraction(1)
    for k in range(i):
        pref *= Fraction(N - k, 2 * k + 2)
    return pref * p(N)


def bii_P_polynomial(i: int, N: int) -> Fraction:
    p = {
        1: lambda n: n * n - n + 2,
        2: lambda n: n**4 - 2 * n**3 + 3 * n**2 + 14 * n - 8,
        3: lambda n: n**6 - 3 * n**5 + n**4 + 51 * n**3 - 2 * n**2 - 96 * n + 96,
    }[i]
    pref = Fraction(1)
    for j in range(1, i + 1):
        pref /= 2 * j
    return pref * p(N)


def bii_S_N1_closed(N: int) -> Fraction:
    return Fraction(2 * N * N + 4 * N + 1 - (-1) ** N, 8)


def check_bii_P_conjecture(i: int, N: int) -> bool:
    """Near-top coefficient of the BII sum against the displayed polynomial.

    The displayed polynomials fit the computed coefficients as
    S_{N,N-i} = prod_j (2j)^{-1} P_i(N-i+1); the verbatim argument N
    contradicts the S_{N,1} closed form at small N, so the shifted
    convention is the one the data pins down.
    """
    got = decompose_sum("BII", N, degrees=[N - i])[N - i]
    return Fraction(got) == bii_P_polynomial(i, N - i + 1)


def check_P_conjecture(tag: str, i: int, N: int) -> bool:
    """Near-bottom coefficient S_{N,i} of the type A or BIII sum against
    the type A polynomial (BII has its near-top check above)."""
    return Fraction(decompose_sum(tag, N, degrees=[i])[i]) == typeA_P_polynomial(i, N)


# -- symmetric binary matrices -------------------------------------------------


def enumerate_sym_binary(n: int) -> list:
    """All symmetric n x n 0/1 matrices with row sums at most one, each as
    its sorted link set: (i, j), 1-based, for each one at i <= j.

    The lowest free row i is empty, holds a diagonal one, or is paired
    with a later free row j, which fills (i, j) and (j, i); the rest is a
    matrix on the other free rows.  The branches fill row i differently,
    so each matrix is listed once; each link starts at the lowest row
    still free, so each set comes out sorted.
    """

    def rec(free: tuple) -> list:
        if not free:
            return [()]
        i, rest = free[0], free[1:]
        out = [links for tail in rec(rest) for links in (tail, ((i, i), *tail))]
        for k, j in enumerate(rest):
            out += [((i, j), *tail) for tail in rec(rest[:k] + rest[k + 1 :])]
        return out

    return rec(tuple(range(1, n + 1)))


def sym_binary_weight_histogram(n: int) -> dict[int, int]:
    hist: dict[int, int] = {}
    for links in enumerate_sym_binary(n):
        hist[len(links)] = hist.get(len(links), 0) + 1
    return hist


def check_weight_histogram(N: int) -> bool:
    return sym_binary_weight_histogram(N) == decompose_sum("A", N)


# -- type A component conjecture ------------------------------------------------


def is_admissible(links) -> bool:
    for (i1, j1), (i2, j2) in combinations(links, 2):
        if i1 < i2 < j1 < j2 or i2 < i1 < j2 < j1:
            return False
    return True


def links_string(links, N: int) -> str:
    chars = ["+"] * N
    for _, j in links:
        chars[j - 1] = "-"
    return "".join(chars)


def F_of_links(links, N: int) -> RingElem:
    n1 = len(links)
    out = _mono(1, N * (N - 1) // 2, N - n1)
    for i, j in links:
        out = out * _mono(1, -(N - 2 * i + j))
    return out


def check_typeA_component_conjecture(N: int, b: str):
    """Compare Psi_{D(b)} with the admissible-matrix sum for one string."""
    total = ZERO
    for links in enumerate_sym_binary(N):
        if is_admissible(links) and links_string(links, N) == b:
            total = total + F_of_links(links, N)
    psi = psi_component("A", make_diagram("A", b)).as_polynomial()
    return psi == total, psi, total


def block_strings(N: int):
    """Strings of shape -^i +^j -^k +^rest, the shape the conjecture covers."""
    seen = set()
    for i in range(N + 1):
        for j in range(N - i + 1):
            for k in range(N - i - j + 1):
                s = "-" * i + "+" * j + "-" * k + "+" * (N - i - j - k)
                seen.add(s)
    return sorted(seen)


# -- bisymmetric permutation matrices -------------------------------------------


def enumerate_bisym_perm(n: int) -> int:
    """Orbit count of 2n x 2n bisymmetric permutation matrices modulo a
    quarter turn (i, j) -> (j, 2n-1-i); matches the B recurrence.  Each
    orbit is named by the least of its four turns as sorted cells."""
    m = 2 * n
    orbits = set()
    for sigma in signed_bisym_matrices(m):
        if any(sign < 0 for _, sign in sigma.values()):
            continue  # the permutation matrices are the all-positive ones
        turns = [tuple(sorted((i, j) for i, (j, _) in sigma.items()))]
        for _ in range(3):
            turns.append(tuple(sorted((j, m - 1 - i) for i, j in turns[-1])))
        orbits.add(min(turns))
    return len(orbits)


# -- bisymmetric signed permutations (pattern-avoiding) ---------------------------


def signed_bisym_matrices(m: int):
    """Signed permutation matrices of size m, symmetric about both
    diagonals; yields dicts i -> (j, sign) with 0-based indices.

    Such a matrix is a union of orbits {(i, j), (j, i), (m-1-j, m-1-i),
    (m-1-i, m-1-j)} under the two reflections, each with one sign.  The
    lowest empty row i takes a column j and a sign, which fill the orbit
    of (i, j) if its cells lie in empty rows and columns, one per row and
    column.  The entry of row i tells the branches apart, so each matrix
    comes out once.
    """

    def rec(sigma: dict):
        if len(sigma) == m:
            yield sigma
            return
        i = min(r for r in range(m) if r not in sigma)
        used = {j for j, _ in sigma.values()}
        for j in range(m):
            orbit = {(i, j), (j, i), (m - 1 - j, m - 1 - i), (m - 1 - i, m - 1 - j)}
            rows, cols = {r for r, _ in orbit}, {c for _, c in orbit}
            if len(rows) == len(cols) == len(orbit) and not (rows & sigma.keys() or cols & used):
                for sign in (1, -1):
                    yield from rec({**sigma, **{r: (c, sign) for r, c in orbit}})

    yield from rec({})


def avoids_neg_pattern(sigma: dict) -> bool:
    """Avoidance of the signed pattern (-2, -1): no positions i < j with
    both entries negative and |sigma(i)| > |sigma(j)|."""
    m = len(sigma)
    for i in range(m):
        ji, si = sigma[i]
        if si > 0:
            continue
        for j in range(i + 1, m):
            jj, sj = sigma[j]
            if sj < 0 and ji > jj:
                return False
    return True


@lru_cache(maxsize=None)
def pattern_avoiding_bisym_signed(n: int) -> tuple:
    """All matrices in the C-family of size 2(n-1) x 2(n-1), each a
    read-only map, since the cache shares them with every caller."""
    m = 2 * (n - 1)
    return tuple(
        MappingProxyType(s) for s in signed_bisym_matrices(m) if avoids_neg_pattern(s)
    )


def count_pattern_avoiding(n: int) -> int:
    return len(pattern_avoiding_bisym_signed(n))


# -- the BIII path construction ----------------------------------------------


def biii_path_string(sigma: dict, N: int) -> str:
    """Route every fundamental positive link down-left to the diagonal.

    sigma maps 0-based rows to (col, sign) for a matrix of size 2N;
    returns the sign string of length N with a '-' at each diagonal
    point i <= N that a path reaches.  In 1-based (row, column) the
    links are the positive entries with row <= N on or above the
    diagonal, the fundamental ones also on or above the anti-diagonal;
    two crossing links (i1, j1), (i2, j2), i1 < i2 < j1 < j2, off the
    anti-diagonal make a cross point (i2, j1).  A path starts at a
    fundamental link and alternates: down to the next cross point in its
    column, then left to the next cross point in its row, and stops on
    the diagonal where there is none before it.  Each step raises the
    row or lowers the column and neither passes the diagonal, so the walk
    ends there.
    """
    links = [(i + 1, j + 1) for i, (j, sg) in sigma.items() if sg == 1 and i < N and i <= j]
    off = [(i, j) for i, j in links if i + j != 2 * N + 1]
    cross = {(i2, j1) for i1, j1 in off for i2, j2 in off if i1 < i2 < j1 < j2}
    chars = ["+"] * N
    for row, col in links:
        if row + col > 2 * N + 1:
            continue  # not fundamental
        while row < col:
            row = min((r for r, c in cross if c == col and row < r < col), default=col)
            col = max((c for r, c in cross if r == row and row < c < col), default=row)
        if row > N:
            continue  # beyond the reach of the string
        if chars[row - 1] == "-":
            raise RuntimeError("two paths reached the same diagonal point")
        chars[row - 1] = "-"
    return "".join(chars)


def biii_component_histogram(N: int) -> dict[str, int]:
    hist: dict[str, int] = {}
    for sigma in pattern_avoiding_bisym_signed(N + 1):
        b = biii_path_string(sigma, N)
        hist[b] = hist.get(b, 0) + 1
    return hist


def check_biii_component_conjecture(N: int):
    """Per-string comparison of path counts with Psi at q = Q = 1."""
    hist = biii_component_histogram(N)
    p = SpecPoint(1, 1, 1)
    results = {}
    for b in block_strings(N):
        psi = psi_component("BIII", make_diagram("BIII", b)).evaluate(p)
        results[b] = (hist.get(b, 0), psi, hist.get(b, 0) == psi)
    return results
