"""The appendix of quantum-integer identities as executable checks.

Each lemma is coded as (left side, right side) builders over concrete
integer parameters; equality is decided after clearing the structured
denominators, never through floating point.  The induction arguments are
retraced as one-step recurrence identities on the closed forms.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .ring import ONE, R_ONE, R_ZERO, ZERO, RatioElem, RingElem, qint, qQ_bracket, qbinom

_mono = RingElem.mono


@lru_cache(maxsize=4096)
def _bracket_product(nums: tuple) -> RingElem:
    """[n_1] [n_2] ... [n_k] for a sorted tuple of bracket arguments, built on
    the cached product of its prefix; the appendix terms of one run share
    about a thousand such products."""
    if not nums:
        return ONE
    return _bracket_product(nums[:-1]) * qint(nums[-1])


def _ratio(e: int, nums=(), dens=()) -> RatioElem:
    """q^e [n_1] [n_2] ... / ([d_1] [d_2] ...), the shape of every appendix
    term; nums and dens are the bracket arguments."""
    num = _bracket_product(tuple(sorted(nums)))
    if e:
        num = _mono(1, e) * num
    return RatioElem(num, [qint(d) for d in dens])


# -- the summation lemmas ----------------------------------------------------


def lemma_app0(ms, ns):
    """sum over outer arcs of the bulk contribution telescopes to [M]."""
    I = len(ms)
    if len(ns) != I + 1:
        raise ValueError(f"ns needs {I + 1} entries, not {len(ns)}")

    def v(j):
        return sum(ns[:j]) + sum(ms[:j])

    lhs = sum((
        _ratio(
            0,
            [ms[i - 1], 1 + sum(ns[:i]), *(1 + v(j) for j in range(i + 1, I + 1))],
            [1 + ns[j - 1] + v(j - 1) for j in range(i, I + 1)],
        )
        for i in range(1, I + 1)
    ), R_ZERO)
    return lhs, _ratio(0, [sum(ms)])


def lemma_app1(ms, ns):
    I = len(ms)
    if len(ns) != I + 1:
        raise ValueError(f"ns needs {I + 1} entries, not {len(ns)}")
    M, Nn = sum(ms), sum(ns)

    def v(j):
        return sum(ns[:j]) + sum(ms[:j])

    lhs = sum((
        _ratio(
            0,
            [1 + sum(ns[:i]), ms[i - 1], *(1 + v(j - 1) for j in range(i + 2, I + 2))],
            [1 + ns[j - 1] + v(j - 1) for j in range(i, I + 2)],
        )
        for i in range(1, I + 1)
    ), R_ZERO)
    return lhs, _ratio(0, [M], [M + Nn + 1])


def lemma_app2(ms, x):
    lhs = sum((
        _ratio(0, [m], [x + sum(ms[: i - 1]), x + sum(ms[:i])]) for i, m in enumerate(ms, 1)
    ), R_ZERO)
    return lhs, _ratio(0, [sum(ms)], [x, x + sum(ms)])


def lemma_app8(ms, ns):
    I = len(ms)
    if len(ns) != I:
        raise ValueError(f"ns needs {I} entries, not {len(ns)}")

    def v(i):
        return sum(ns[: i - 1]) + sum(ms[: i - 1])

    lows = [ns[j - 1] + v(j) for j in range(1, I + 1)]  # n_j + v_j
    vs = [v(j) for j in range(1, I + 2)]
    # j = 1 has v(1) = 0 and [0] = 0; the lemma's products implicitly start
    # the telescoping at v(1) = n_1 ... guard against that by requiring the
    # caller to pass parameters with v(j) > 0 for j >= 2.
    lhs = _ratio(sum(ms), lows, vs[1:]) + sum((
        _ratio(-sum(ns[:i]), [ms[i - 1], *lows[: i - 1]], [d for d in vs[: i + 1] if d])
        for i in range(1, I + 1)
    ), R_ZERO)
    return lhs, R_ONE


def lemma_app9(ms, ns):
    I = len(ms)
    if len(ns) != I:
        raise ValueError(f"ns needs {I} entries, not {len(ns)}")

    def v(i):
        return sum(ms[: i - 1]) + sum(ns[: i - 1])

    ups = [1 + ms[j - 1] + v(j) for j in range(1, I + 1)]  # 1 + m_j + v_j
    vs = [1 + v(j) for j in range(1, I + 2)]
    lhs = sum((
        _ratio(-sum(ns[: i - 1]) - 1, [ms[i - 1], *ups[i:]], vs[i - 1 :]) for i in range(1, I + 1)
    ), R_ZERO)
    return lhs, _ratio(0, ups, vs[1:]) - _ratio(sum(ms), [], vs[-1:])


def lemma_app10(ms, ns):
    I = len(ms)
    if len(ns) != I:
        raise ValueError(f"ns needs {I} entries, not {len(ns)}")

    def v(i):
        return sum(ns[: i - 1]) + sum(ms[: i - 1])

    def w(i):
        return 1 + ns[i - 1] + v(i) if i <= I else 1 + v(i)

    # w_{I+1} = 1 + n_{I+1} + v_{I+1}; the lemma uses lists of equal length
    # so w at I+1 is read as 1 + v_{I+1}.
    ups = [1 + v(k) for k in range(1, I + 2)]
    ws = [w(k) for k in range(1, I + 2)]
    lows = [ns[k - 1] + v(k) for k in range(1, I + 1)]  # n_k + v_k
    vs = [v(k) for k in range(2, I + 2)]
    # The i-th summand is q^{1-M} q^{-N_i} [m_i] times nums over dens times the brace
    # q^{M_{i-1}} (1 + q^{-2}) - q^{-N_i-1} [m_i - 1] / [v_{i+1}]; with 1 + q^{-2} = q^{-1} [2]
    # it is written as two ratios.
    M = sum(ms)
    lhs = R_ZERO
    for i in range(1, I + 1):
        e, m = 1 - M - sum(ns[:i]), ms[i - 1]
        nums, dens = ups[i + 1 :] + lows[: i - 1], ws[i - 1 :] + vs[: i - 1]
        lhs = lhs + _ratio(e + sum(ms[: i - 1]) - 1, [m, 2, *nums], dens)
        lhs = lhs - _ratio(e - sum(ns[:i]) - 1, [m, m - 1, *nums], [*dens, vs[i - 1]])
    return lhs, _ratio(-M, ups, ws) - _ratio(M, lows, [ws[-1], *vs])


def lemma_app11(ms, ns):
    I = len(ms)
    if len(ns) != I:
        raise ValueError(f"ns needs {I} entries, not {len(ns)}")

    # Same partial-sum convention as the neighbouring identities:
    # v_i sums strictly below i, and the last w has no arrow term.
    def v(i):
        return sum(ns[: i - 1]) + sum(ms[: i - 1])

    def w2(i):
        if i <= I:
            return 1 + ns[i - 1] + v(i)
        return 1 + v(i)

    ups = [1 + v(j) for j in range(1, I + 2)]
    ws = [w2(j) for j in range(1, I + 2)]
    lhs = sum((
        _ratio(-1 - sum(ns[:i]), [ms[i - 1], *ups[i + 1 :]], ws[i - 1 :]) for i in range(1, I + 1)
    ), R_ZERO)
    return lhs, _ratio(0, ups, ws) - _ratio(sum(ms), [], ws[-1:])


def lemma_app13(ms, x, z):
    K = len(ms)

    # the brackets of I_i: the numerators [2 + 2z + 2(m_j + ... + m_K)] and
    # the denominators [2 + 2z + m_j + 2(m_{j+1} + ... + m_K)], j = 1..i
    def i_nums(i):
        return [2 + 2 * z + 2 * sum(ms[j - 1 :]) for j in range(1, i + 1)]

    def i_dens(i):
        return [2 + 2 * z + ms[j - 1] + 2 * sum(ms[j:]) for j in range(1, i + 1)]

    lhs = sum((
        _ratio(
            0,
            [*i_nums(i), ms[i - 1], x + 3 + 2 * z + sum(ms[:i]) + 2 * sum(ms[i:])],
            [*i_dens(i), 1 + x + sum(ms[: i - 1]), 1 + x + sum(ms[:i])],
        )
        for i in range(1, K + 1)
    ), R_ZERO)
    lhs = lhs + _ratio(0, [*i_nums(K), 2 * z + 2], [*i_dens(K), 1 + x + sum(ms)])
    return lhs, _ratio(0, [2 + 2 * z + 2 * sum(ms)], [1 + x])


def _app15_to_17_brackets(ms, ns):
    """The bracket arguments of lemmas app15-app17, each a list over j = 1..I
    with v_j = n_1 + ... + n_j + m_1 + ... + m_j: n_j + v_{j-1}, 1 + v_j,
    1 + n_j + v_{j-1} and v_j."""

    def v(i):
        return sum(ns[:i]) + sum(ms[:i])

    I = len(ms)
    if len(ns) != I:
        raise ValueError(f"ns needs {I} entries, not {len(ns)}")
    lows = [ns[j - 1] + v(j - 1) for j in range(1, I + 1)]
    ups = [1 + v(j) for j in range(1, I + 1)]
    arrows = [1 + ns[j - 1] + v(j - 1) for j in range(1, I + 1)]
    return lows, ups, arrows, [v(j) for j in range(1, I + 1)]


def lemma_app15(ms, ns):
    lows, _, _, vs = _app15_to_17_brackets(ms, ns)
    lhs = sum((
        _ratio(-sum(ns[:i]), [ms[i - 1], *lows[: i - 1]], vs[:i]) for i in range(1, len(ms) + 1)
    ), R_ZERO)
    return lhs, R_ONE - _ratio(sum(ms), lows, vs)


def lemma_app16(ms, ns):
    _, ups, arrows, _ = _app15_to_17_brackets(ms, ns)
    lhs = sum((
        _ratio(-sum(ns[:i]), [ms[i - 1], *ups[i:]], arrows[i - 1 :]) for i in range(1, len(ms) + 1)
    ), R_ZERO)
    return lhs, _ratio(1, ups, arrows) - _ratio(1 + sum(ms))


def lemma_app17(ms, ns):
    lows, ups, arrows, vs = _app15_to_17_brackets(ms, ns)
    # The i-th summand is q^{-N_i} [m_i] times nums over dens times the brace
    # q^{M_{i-1}} (1 + q^{-2}) - q^{-1-N_i} [m_i - 1] / [v_i]; with 1 + q^{-2} = q^{-1} [2]
    # it is written as two ratios.
    lhs = R_ZERO
    for i in range(1, len(ms) + 1):
        e, m = -sum(ns[:i]), ms[i - 1]
        nums, dens = lows[: i - 1] + ups[i:], vs[: i - 1] + arrows[i - 1 :]
        lhs = lhs + _ratio(e + sum(ms[: i - 1]) - 1, [m, 2, *nums], dens)
        lhs = lhs - _ratio(e - 1 - sum(ns[:i]), [m, m - 1, *nums], [*dens, vs[i - 1]])
    return lhs, _ratio(-1, ups, arrows) - _ratio(2 * sum(ms) - 1, lows, vs)


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


def _random_lists(rng: random.Random, n_zero_ok=True):
    """Lists ms, ns of one length in 1..3, entries at most 3 (ms from 1)."""
    I = rng.randint(1, 3)
    ms = [rng.randint(1, 3) for _ in range(I)]
    ns = [rng.randint(0 if n_zero_ok else 1, 3) for _ in range(I)]
    return ms, ns


def verify_qidentity(lemma: str, params: dict) -> bool:
    """Check one lemma instance; params use keys ms, ns, x, z, N."""
    if lemma == "appA":
        return verify_tridiagonal_lemma(params["N"])
    lhs, rhs = LEMMAS[lemma](**params)
    return lhs == rhs


def random_params(lemma: str, rng: random.Random) -> dict:
    if lemma == "appA":
        return {"N": rng.randint(1, 3)}
    if lemma == "app2":
        ms, _ = _random_lists(rng)
        return {"ms": ms, "x": rng.randint(1, 4)}
    if lemma == "app13":
        ms, _ = _random_lists(rng)
        return {"ms": ms, "x": rng.randint(1, 4), "z": rng.randint(0, 3)}
    if lemma in ("app0", "app1"):
        ms, ns = _random_lists(rng)
        ns.append(rng.randint(0, 3))
        # inner denominators need 1 + n_j + v_j > 0, automatic here
        return {"ms": ms, "ns": ns}
    if lemma in ("app8", "app15", "app17"):
        ms, ns = _random_lists(rng, n_zero_ok=False)
        return {"ms": ms, "ns": ns}
    ms, ns = _random_lists(rng)
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
