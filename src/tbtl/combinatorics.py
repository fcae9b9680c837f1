"""Correlation functions, component sums, matrix enumerations and the
conjecture scorecards that tie them together.

Conjecture checkers report agreement; they never raise on disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .basis import build_diagram
from .ground_state import psi_vector, psi_component
from .ring import RatioElem, RingElem, SpecPoint, R_ONE

_mono = RingElem.mono


# -- correlation functions ----------------------------------------------------


def correlation_closed(N: int, alphas, plus, minus) -> RatioElem:
    """<prod alpha_i prod sigma^{+-}_j> on the factorized standard ground state."""
    out = R_ONE
    for i in alphas:
        num = _mono(1, 2 * (N - i), 2)
        den = RingElem.const(1) + _mono(1, 2 * (N - i), 2)
        out = out * RatioElem(num, (den,))
    for j in list(plus) + list(minus):
        num = _mono(1, N - j, 1)
        den = RingElem.const(1) + _mono(1, 2 * (N - j), 2)
        out = out * RatioElem(num, (den,))
    return out


def correlation_brute(N: int, alphas, plus, minus) -> tuple[RatioElem, RatioElem]:
    """(<Psi0|O|Psi0>, <Psi0|Psi0>) from the explicit component sum; the
    correlation is their ratio."""
    comps = psi_vector("standard", N).components()
    num = RatioElem.from_int(0)
    den = RatioElem.from_int(0)
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


def oeis_sequence(name: str, n: int) -> int:
    if name == "A005425":  # A_n = 2A_{n-1} + (n-1)A_{n-2}
        a, b = 1, 2  # A_0, A_1
        if n == 0:
            return a
        for k in range(2, n + 1):
            a, b = b, 2 * b + (k - 1) * a
        return b
    if name == "A000902":  # B_n = 2B_{n-1} + (2n-2)B_{n-2}
        if n < 1:
            raise ValueError("B_n starts at n=1")
        a, b = 1, 3  # B_1, B_2
        if n == 1:
            return a
        for k in range(3, n + 1):
            a, b = b, 2 * b + (2 * k - 2) * a
        return b
    if name == "A083886":  # C_{n+1} = 3C_n + 2(n-1)C_{n-1}
        if n < 1:
            raise ValueError("C_n starts at n=1")
        a, b = 1, 3  # C_1, C_2
        if n == 1:
            return a
        for k in range(3, n + 1):
            # C_k = 3C_{k-1} + 2(k-3+1)C_{k-2} with index shift n+1 -> k
            a, b = b, 3 * b + 2 * (k - 2) * a
        return b
    raise ValueError(name)


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
    triple per family of the table; M = inf means M = N + 1."""
    out = []
    for key in TABLE_1:
        tag, M = key if isinstance(key, tuple) else (key, None)
        label = tag if M is None else f"{tag}(M={M})"
        sums = [sum_rule(tag, N, N + 1 if M == "inf" else M) for N in range(1, n_max + 1)]
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
            f = psi_component(tag, build_diagram(tag, s))
            # one numerator atom in Q, Q q^k + Q^-1 q^-k, per shift
            assert sum(any(m[1] for m in a.terms) for a in f.num) == shifts and f.Q_exp == Q_exp
            total += f.evaluate(p)
        total /= 2**shifts
        assert total.denominator == 1
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


def check_typeA_P_conjecture(i: int, N: int) -> bool:
    got = decompose_sum("A", N, degrees=[i])[i]
    return Fraction(got) == typeA_P_polynomial(i, N)


def check_biii_P_conjecture(i: int, N: int) -> bool:
    got = decompose_sum("BIII", N, degrees=[i])[i]
    return Fraction(got) == typeA_P_polynomial(i, N)


# -- symmetric binary matrices -------------------------------------------------


def enumerate_sym_binary(n: int):
    """All symmetric 0/1 matrices with row sums at most one, as
    (pairs, fixed) with pairs a tuple of (i, j), i < j, and fixed the
    diagonal support; sites are 0-based."""
    out = []

    def rec(free: tuple, pairs: tuple):
        if not free:
            out.append((pairs, ()))
            return
        first, rest = free[0], free[1:]
        # first unused: becomes empty row or diagonal 1 later; branch on
        # pairing with each later element
        rec(rest, pairs)
        for k, other in enumerate(rest):
            rec(rest[:k] + rest[k + 1 :], pairs + ((first, other),))

    rec(tuple(range(n)), ())
    full = []
    for pairs, _ in out:
        used = {i for p_ in pairs for i in p_}
        rest = [i for i in range(n) if i not in used]
        for r in range(len(rest) + 1):
            for fixed in combinations(rest, r):
                full.append((pairs, fixed))
    return full


def sym_binary_weight_histogram(n: int) -> dict[int, int]:
    hist: dict[int, int] = {}
    for pairs, fixed in enumerate_sym_binary(n):
        w = len(pairs) + len(fixed)
        hist[w] = hist.get(w, 0) + 1
    return hist


def check_weight_histogram(N: int) -> bool:
    return sym_binary_weight_histogram(N) == decompose_sum("A", N)


# -- type A component conjecture ------------------------------------------------


def admissible_links(N: int):
    """All symmetric binary matrices as link sets {(i,j): i <= j}, 1-based."""
    for pairs, fixed in enumerate_sym_binary(N):
        yield tuple(sorted([(i + 1, j + 1) for i, j in pairs] + [(i + 1, i + 1) for i in fixed]))


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
    total = RingElem.zero()
    for links in admissible_links(N):
        if is_admissible(links) and links_string(links, N) == b:
            total = total + F_of_links(links, N)
    psi = psi_component("A", build_diagram("A", b)).as_polynomial()
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
    quarter turn; matches the B recurrence."""
    m = 2 * n

    def rot(sigma):
        # quarter turn of the permutation matrix: (i, sigma(i)) -> (sigma(i), m-1-i)
        return tuple(sorted((sigma[i], m - 1 - i) for i in range(m)))

    seen = set()
    orbits = 0
    for signed in signed_bisym_matrices(m):
        if any(sign < 0 for _, sign in signed.values()):
            continue  # the permutation matrices are the all-positive ones
        key = tuple(sorted((i, j) for i, (j, _) in signed.items()))
        if key in seen:
            continue
        orbits += 1
        cur = key
        for _ in range(4):
            cur = rot(dict(cur))
            seen.add(cur)
    return orbits


# -- bisymmetric signed permutations (pattern-avoiding) ---------------------------


def signed_bisym_matrices(m: int):
    """Signed permutation matrices of size m, symmetric about both
    diagonals; yields dicts i -> (j, sign) with 0-based indices."""
    if m == 0:
        yield {}
        return
    out_set: set = set()

    def propagate(trial: dict, a: int, b: int, sg: int) -> bool:
        queue = [(a, b, sg)]
        while queue:
            a, b, sg = queue.pop()
            prev = trial.get(a)
            if prev is not None:
                if prev != (b, sg):
                    return False
                continue
            if b in {col for col, _ in trial.values()}:
                return False
            trial[a] = (b, sg)
            queue.append((b, a, sg))  # main-diagonal symmetry
            queue.append((m - 1 - b, m - 1 - a, sg))  # anti-diagonal symmetry
        return True

    def rec(assign: dict):
        if len(assign) == m:
            out_set.add(tuple(sorted(assign.items())))
            return
        i = min(x for x in range(m) if x not in assign)
        used = {j for j, _ in assign.values()}
        for j in range(m):
            if j in used:
                continue
            for sign in (1, -1):
                trial = dict(assign)
                if propagate(trial, i, j, sign):
                    rec(trial)

    rec({})
    for t in out_set:
        yield dict(t)


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


def biii_path_string(sigma: dict, n: int) -> str:
    """Route every fundamental positive link down-left to the diagonal.

    sigma maps 0-based rows to (col, sign) for a matrix of size 2N with
    N = n; returns the resulting sign string of length N.
    """
    N = n
    # 1-based coordinates
    links = []
    for i0 in range(len(sigma)):
        j0, sg = sigma[i0]
        i, j = i0 + 1, j0 + 1
        if sg == 1 and 1 <= i <= N and i <= j <= 2 * N:
            links.append((i, j))
    fundamental = [(i, j) for (i, j) in links if j <= 2 * N + 1 - i]
    cross = set()
    for (i1, j1) in links:
        for (i2, j2) in links:
            if i1 < i2 < j1 < j2 and i1 + j1 != 2 * N + 1 and i2 + j2 != 2 * N + 1:
                cross.add((i2, j1))
    chars = ["+"] * N
    for (i1, j1) in fundamental:
        # walk down from (i1, j1), turning left at cross points hit from
        # above and continuing down through those hit from the right
        x, y = j1, i1  # column, row
        direction = "down"
        guard = 0
        while True:
            guard += 1
            if guard > 10000:
                raise RuntimeError("path routing did not terminate")
            if direction == "down":
                candidates = [r for (r, c) in cross if c == x and r > y]
                stop_diag = x  # diagonal point (x, x)
                nxt = min(candidates) if candidates else None
                if nxt is None or nxt >= stop_diag:
                    y = stop_diag
                    break
                y = nxt
                direction = "left"
            else:
                candidates = [c for (r, c) in cross if r == y and c < x]
                stop_diag = y
                nxt = max(candidates) if candidates else None
                if nxt is None or nxt <= stop_diag:
                    x = stop_diag
                    break
                x = nxt
                direction = "down"
        assert x == y, "path must end on the diagonal"
        if x > N:
            continue  # beyond the reach of the string
        if chars[x - 1] == "-":
            raise RuntimeError("two paths reached the same diagonal point")
        chars[x - 1] = "-"
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
        psi = psi_component("BIII", build_diagram("BIII", b)).evaluate(p)
        results[b] = (hist.get(b, 0), psi, hist.get(b, 0) == psi)
    return results
