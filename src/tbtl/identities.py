"""The appendix of quantum-integer identities as executable checks.

Each lemma is coded as (left side, right side) builders over concrete
integer parameters; equality is decided after clearing the structured
denominators, never through floating point.  The induction arguments are
retraced as one-step recurrence identities on the closed forms.

Every term q^e [n_1] ... / ([d_1] ...) is written over B(n) = q^n - q^-n,
with [n] = B(n) / B(1) (Kassel, Quantum Groups, VI.1), so its denominator
atoms are two-term B(d).  Every B(d) vanishes at q = 1 and at q = -1, where
[d] does not, so nothing may evaluate an appendix term at q = +-1; the tests
pin the terms' values at q = 7/5.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate

from .ring import ONE, R_ONE, R_ZERO, ZERO, RatioElem, RingElem, qint, qQ_bracket, qbinom

_mono = RingElem.mono


@lru_cache(maxsize=None)
def _b(n: int) -> RingElem:
    """B(n) = q^n - q^-n, so that [n] = B(n) / B(1) for every integer n; B(0) = 0."""
    return RingElem({(n, 0, 0): 1, (-n, 0, 0): -1} if n else {})


@lru_cache(maxsize=4096)
def _b_product(ns: tuple) -> RingElem:
    """B(n_1) B(n_2) ... B(n_k) for a sorted tuple of arguments, built on the
    cached product of its prefix; the appendix terms of one run share about
    nine hundred such products."""
    if not ns:
        return ONE
    return _b_product(ns[:-1]) * _b(ns[-1])


def _ratio(e: int, nums=(), dens=()) -> RatioElem:
    """q^e [n_1] [n_2] ... / ([d_1] [d_2] ...), the shape of every appendix
    term; nums and dens are the bracket arguments.

    With [n] = B(n) / B(1) the term is q^e B(1)^(len(dens) - len(nums))
    B(n_1) B(n_2) ... / (B(d_1) B(d_2) ...), with B(-n) = -B(n).  The
    arguments that the numerator and the denominator share cancel before
    anything is expanded, and the atoms left are two-term B(d), so a sum
    lifts its numerators to a common denominator by two-term factors.  A
    zero in dens raises ZeroDenominator, as the direct construction does."""
    if 0 in dens:
        # the direct construction, which RatioElem refuses before a [0]
        # in dens could cancel against a [0] in nums
        num = _mono(1, e)
        for n in nums:
            num = num * qint(n)
        return RatioElem(num, [qint(d) for d in dens])
    sign = (-1) ** sum(a < 0 for a in (*nums, *dens))
    power = len(dens) - len(nums)
    top = sorted([1] * power + [abs(n) for n in nums])
    bottom = sorted([1] * -power + [abs(d) for d in dens])
    # one merge of the two sorted lists drops each shared argument once from both
    kept_top, kept_bottom, i, j = [], [], 0, 0
    while i < len(top) and j < len(bottom):
        a, b = top[i], bottom[j]
        if a == b:
            i, j = i + 1, j + 1
        elif a < b:
            kept_top.append(a)
            i += 1
        else:
            kept_bottom.append(b)
            j += 1
    num = _b_product((*kept_top, *top[i:]))
    if e or sign < 0:
        num = _mono(sign, e) * num
    return RatioElem(num, [_b(d) for d in (*kept_bottom, *bottom[j:])])


# -- the summation lemmas ----------------------------------------------------
# The (ms, ns) lemmas read their partial sums from _prefix: M[j] = m_1 + ... + m_j,
# Nn[j] = n_1 + ... + n_j and V[j] = M[j] + Nn[j], with M[0] = Nn[0] = V[0] = 0.
# The paper's v_j is V[j] in lemmas app0, app1 and app15-app17, and V[j - 1],
# the sum strictly below j, in lemmas app8-app11.


def _prefix(ms, ns, extra=0):
    """The prefix lists M, Nn and V of ms and ns, which must hold len(ms) + extra
    entries; V stops at j = len(ms)."""
    if len(ns) != len(ms) + extra:
        raise ValueError(f"ns needs {len(ms) + extra} entries, not {len(ns)}")
    M, Nn = list(accumulate(ms, initial=0)), list(accumulate(ns, initial=0))
    return M, Nn, [m + n for m, n in zip(M, Nn)]


def lemma_app0(ms, ns):
    """sum over outer arcs of the bulk contribution telescopes to [M]."""
    M, Nn, V = _prefix(ms, ns, 1)
    I = len(ms)
    lhs = sum((
        _ratio(
            0,
            [ms[i - 1], 1 + Nn[i], *(1 + v for v in V[i + 1 :])],
            [1 + Nn[j] + M[j - 1] for j in range(i, I + 1)],
        )
        for i in range(1, I + 1)
    ), R_ZERO)
    return lhs, _ratio(0, [M[-1]])


def lemma_app1(ms, ns):
    M, Nn, V = _prefix(ms, ns, 1)
    I = len(ms)
    lhs = sum((
        _ratio(
            0,
            [1 + Nn[i], ms[i - 1], *(1 + v for v in V[i + 1 :])],
            [1 + Nn[j] + M[j - 1] for j in range(i, I + 2)],
        )
        for i in range(1, I + 1)
    ), R_ZERO)
    return lhs, _ratio(0, [M[-1]], [M[-1] + Nn[-1] + 1])


def lemma_app2(ms, x):
    M = list(accumulate(ms, initial=0))
    lhs = sum((_ratio(0, [m], [x + M[i - 1], x + M[i]]) for i, m in enumerate(ms, 1)), R_ZERO)
    return lhs, _ratio(0, [M[-1]], [x, x + M[-1]])


def lemma_app8(ms, ns):
    M, Nn, V = _prefix(ms, ns)
    lows = [n + m for n, m in zip(Nn[1:], M)]  # n_j + v_j
    # v_1 = V[0] = 0 and [0] = 0, so the filter leaves v_1 out of the
    # denominators; every later v_j >= m_1 >= 1.
    lhs = _ratio(M[-1], lows, V[1:]) + sum((
        _ratio(-Nn[i], [ms[i - 1], *lows[: i - 1]], [d for d in V[: i + 1] if d])
        for i in range(1, len(ms) + 1)
    ), R_ZERO)
    return lhs, R_ONE


def lemma_app9(ms, ns):
    M, Nn, V = _prefix(ms, ns)
    ups = [1 + m + n for m, n in zip(M[1:], Nn)]  # 1 + m_j + v_j
    vs = [1 + v for v in V]
    lhs = sum((
        _ratio(-Nn[i - 1] - 1, [ms[i - 1], *ups[i:]], vs[i - 1 :]) for i in range(1, len(ms) + 1)
    ), R_ZERO)
    return lhs, _ratio(0, ups, vs[1:]) - _ratio(M[-1], [], vs[-1:])


def _app10_11_brackets(ms, ns):
    """The prefix lists M, Nn and V, 1 + v_j for j = 1..I+1, and w_j = 1 + n_j + v_j
    for j = 1..I with w_{I+1} read as 1 + v_{I+1}, so that both lists have I + 1
    entries; lemmas app10 and app11 read both."""
    M, Nn, V = _prefix(ms, ns)
    ws = [*(1 + n + m for n, m in zip(Nn[1:], M)), 1 + V[-1]]
    return M, Nn, V, [1 + v for v in V], ws


def lemma_app10(ms, ns):
    M, Nn, V, ups, ws = _app10_11_brackets(ms, ns)
    lows = [n + m for n, m in zip(Nn[1:], M)]  # n_k + v_k
    vs = V[1:]
    # The i-th summand is q^{1-M} q^{-N_i} [m_i] times nums over dens times the brace
    # q^{M_{i-1}} (1 + q^{-2}) - q^{-N_i-1} [m_i - 1] / [v_{i+1}]; with 1 + q^{-2} = q^{-1} [2]
    # it is written as two ratios.
    lhs = R_ZERO
    for i in range(1, len(ms) + 1):
        e, m = 1 - M[-1] - Nn[i], ms[i - 1]
        nums, dens = ups[i + 1 :] + lows[: i - 1], ws[i - 1 :] + vs[: i - 1]
        lhs = lhs + _ratio(e + M[i - 1] - 1, [m, 2, *nums], dens)
        lhs = lhs - _ratio(e - Nn[i] - 1, [m, m - 1, *nums], [*dens, vs[i - 1]])
    return lhs, _ratio(-M[-1], ups, ws) - _ratio(M[-1], lows, [ws[-1], *vs])


def lemma_app11(ms, ns):
    M, Nn, _, ups, ws = _app10_11_brackets(ms, ns)
    lhs = sum((
        _ratio(-1 - Nn[i], [ms[i - 1], *ups[i + 1 :]], ws[i - 1 :]) for i in range(1, len(ms) + 1)
    ), R_ZERO)
    return lhs, _ratio(0, ups, ws) - _ratio(M[-1], [], ws[-1:])


def lemma_app13(ms, x, z):
    M = list(accumulate(ms, initial=0))
    K, S = len(ms), M[-1]
    # the brackets of I_i are the first i of the numerators [2 + 2z + 2(m_j + ... + m_K)]
    # and of the denominators [2 + 2z + m_j + 2(m_{j+1} + ... + m_K)], j = 1..K
    i_nums = [2 + 2 * z + 2 * (S - below) for below in M[:-1]]
    i_dens = [2 + 2 * z + m + 2 * (S - upto) for m, upto in zip(ms, M[1:])]
    lhs = sum((
        _ratio(
            0,
            [*i_nums[:i], ms[i - 1], x + 3 + 2 * z + M[i] + 2 * (S - M[i])],
            [*i_dens[:i], 1 + x + M[i - 1], 1 + x + M[i]],
        )
        for i in range(1, K + 1)
    ), R_ZERO)
    lhs = lhs + _ratio(0, [*i_nums, 2 * z + 2], [*i_dens, 1 + x + S])
    return lhs, _ratio(0, [2 + 2 * z + 2 * S], [1 + x])


def _app15_to_17_brackets(ms, ns):
    """The prefix lists M and Nn and the bracket arguments of lemmas app15-app17,
    each a list over j = 1..I with v_j = V[j]: n_j + v_{j-1}, 1 + v_j,
    1 + n_j + v_{j-1} and v_j."""
    M, Nn, V = _prefix(ms, ns)
    lows = [n + m for n, m in zip(Nn[1:], M)]
    return M, Nn, lows, [1 + v for v in V[1:]], [1 + low for low in lows], V[1:]


def lemma_app15(ms, ns):
    M, Nn, lows, _, _, vs = _app15_to_17_brackets(ms, ns)
    lhs = sum((
        _ratio(-Nn[i], [ms[i - 1], *lows[: i - 1]], vs[:i]) for i in range(1, len(ms) + 1)
    ), R_ZERO)
    return lhs, R_ONE - _ratio(M[-1], lows, vs)


def lemma_app16(ms, ns):
    M, Nn, _, ups, arrows, _ = _app15_to_17_brackets(ms, ns)
    lhs = sum((
        _ratio(-Nn[i], [ms[i - 1], *ups[i:]], arrows[i - 1 :]) for i in range(1, len(ms) + 1)
    ), R_ZERO)
    return lhs, _ratio(1, ups, arrows) - _ratio(1 + M[-1])


def lemma_app17(ms, ns):
    M, Nn, lows, ups, arrows, vs = _app15_to_17_brackets(ms, ns)
    # The i-th summand is q^{-N_i} [m_i] times nums over dens times the brace
    # q^{M_{i-1}} (1 + q^{-2}) - q^{-1-N_i} [m_i - 1] / [v_i]; with 1 + q^{-2} = q^{-1} [2]
    # it is written as two ratios.
    lhs = R_ZERO
    for i in range(1, len(ms) + 1):
        e, m = -Nn[i], ms[i - 1]
        nums, dens = lows[: i - 1] + ups[i:], vs[: i - 1] + arrows[i - 1 :]
        lhs = lhs + _ratio(e + M[i - 1] - 1, [m, 2, *nums], dens)
        lhs = lhs - _ratio(e - 1 - Nn[i], [m, m - 1, *nums], [*dens, vs[i - 1]])
    return lhs, _ratio(-1, ups, arrows) - _ratio(2 * M[-1] - 1, lows, vs)


LEMMAS = {
    "app0": lemma_app0,
    "app1": lemma_app1,
    "app2": lemma_app2,
    "app8": lemma_app8,
    "app9": lemma_app9,
    "app10": lemma_app10,
    "app11": lemma_app11,
    "app13": lemma_app13,
    "app15": lemma_app15,
    "app16": lemma_app16,
    "app17": lemma_app17,
}
LEMMA_IDS = ("appA", *LEMMAS)


# -- the tridiagonal lemma -----------------------------------------------------


def tridiagonal_entry(N: int, lam: int, i: int) -> RingElem:
    """a^(1)_{i,i} of the shifted matrix, as a Laurent polynomial."""
    return _mono(1, N + 1 - i - lam, 1) * qint(lam + 1 - i) + _mono(
        1, 1 - i + lam, -1
    ) * qint(lam - N - 1 + i)


def tridiag_v_sequence(N: int, lam: int) -> list[RingElem]:
    """v_{N+2}, ..., v_1 from the right-bottom elimination recursion.

    The off-diagonal product is q^{N-2i+1} [i] [N+1-i], the value the
    proof's own recursion displays; it is also what the generator action
    on the arc-free sector produces.
    """
    a_diag = {i: tridiagonal_entry(N, lam, i) for i in range(1, N + 2)}
    v = {N + 2: ONE, N + 1: a_diag[N + 1]}
    for i in range(N, 0, -1):
        offprod = _mono(1, N - 2 * i + 1) * qint(i) * qint(N + 1 - i)
        v[i] = a_diag[i] * v[i + 1] - offprod * v[i + 2]
    return v


def tridiag_v_closed(N: int, lam: int, n: int) -> RingElem:
    m = N + 2 - n
    out = ZERO
    for j in range(0, m + 1):
        d = m * (m - 1) // 2 - lam * m + j * (-N + 2 * lam)
        alpha = _mono(1, d) * qbinom(m, j)
        for i in range(0, m - j):
            alpha = alpha * qint(lam - N + i)
        for i in range(0, j):
            alpha = alpha * qint(lam - i)
        out = out + alpha * _mono(1, 0, m - 2 * j)
    return out


def verify_tridiagonal_lemma(N: int) -> bool:
    """det(A - x_lambda) = 0 for every lambda, plus the v-recursion against
    its closed form; also checks the shifted diagonal against a - x."""
    ok = True
    for lam in range(0, N + 1):
        # the shifted diagonal really is a_{i,i} - x_lambda
        x = qQ_bracket(N - 2 * lam)
        for i in range(1, N + 2):
            direct = qQ_bracket(0) * RatioElem(_mono(1, N + 2 - 2 * i)) - x
            if direct != RatioElem(tridiagonal_entry(N, lam, i)):
                return False
        v = tridiag_v_sequence(N, lam)
        if v[1]:
            ok = False
        for n in range(1, N + 2):
            if v[n] != tridiag_v_closed(N, lam, n):
                ok = False
    return ok


# -- harness -------------------------------------------------------------------


def verify_qidentity(lemma: str, params: dict) -> bool:
    """Check one lemma instance; params use keys ms, ns, x, z, N."""
    if lemma == "appA":
        return verify_tridiagonal_lemma(params["N"])
    lhs, rhs = LEMMAS[lemma](**params)
    return lhs == rhs


def random_params(lemma: str, rng: random.Random) -> dict:
    """One instance: I in 1..3, then I entries of ms in 1..3, then the entries
    of ns in 0..3 (1..3 for app8, app15 and app17; I + 1 of them for app0 and
    app1).  app2 and app13 draw ns too and leave it unused."""
    if lemma == "appA":
        return {"N": rng.randint(1, 3)}
    I = rng.randint(1, 3)
    ms = [rng.randint(1, 3) for _ in range(I)]
    lo = 1 if lemma in ("app8", "app15", "app17") else 0
    ns = [rng.randint(lo, 3) for _ in range(I + 1 if lemma in ("app0", "app1") else I)]
    if lemma == "app2":
        return {"ms": ms, "x": rng.randint(1, 4)}
    if lemma == "app13":
        return {"ms": ms, "x": rng.randint(1, 4), "z": rng.randint(0, 3)}
    return {"ms": ms, "ns": ns}


def sweep(lemma: str, draws: int = 200, seed: int = 11) -> bool:
    """Draw `draws` instances of one lemma from Random(seed), each distinct
    instance checked once (a verdict depends on (lemma, params) alone); True
    when every one holds."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(draws):
        params = random_params(lemma, rng)
        key = tuple(tuple(v) if isinstance(v, list) else v for v in params.values())
        if key in seen:
            continue
        seen.add(key)
        if not verify_qidentity(lemma, params):
            return False
    return True
