"""The appendix of quantum-integer identities as executable checks.

Each lemma is coded as (left side, right side) builders over concrete
integer parameters; equality is decided after clearing the structured
denominators, never through floating point.  The induction arguments are
retraced as one-step recurrence identities on the closed forms.
"""

from __future__ import annotations

import random

from .ring import (
    RatioElem,
    RingElem,
    qint,
    qQ_bracket,
    qbinom,
    R_ONE,
    R_ZERO,
)

_mono = RingElem.mono


def _r(a: RingElem) -> RatioElem:
    return RatioElem.from_ring(a)


def _frac(num: RingElem, *dens: RingElem) -> RatioElem:
    return RatioElem(num, tuple(("raw", d) for d in dens))


# -- the summation lemmas ----------------------------------------------------


def lemma_app0(ms, ns):
    """sum over outer arcs of the bulk contribution telescopes to [M]."""
    I = len(ms)
    assert len(ns) == I + 1
    lhs = R_ZERO
    for i in range(1, I + 1):
        term = _r(qint(ms[i - 1]) * qint(1 + sum(ns[:i])))
        for j in range(i + 1, I + 1):
            term = term.mul_ring(qint(1 + sum(ns[:j]) + sum(ms[:j])))
        for j in range(i, I + 1):
            term = term.div_atom(
                ("raw", qint(1 + ns[j - 1] + sum(ns[: j - 1]) + sum(ms[: j - 1])))
            )
        lhs = lhs + term
    rhs = _r(qint(sum(ms)))
    return lhs, rhs


def lemma_app1(ms, ns):
    I = len(ms)
    assert len(ns) == I + 1
    M, Nn = sum(ms), sum(ns)
    lhs = R_ZERO
    for i in range(1, I + 1):
        term = _r(qint(1 + sum(ns[:i])) * qint(ms[i - 1]))
        for j in range(i + 2, I + 2):
            term = term.mul_ring(
                qint(1 + sum(ns[: j - 1]) + sum(ms[: j - 1]))
            )
        for j in range(i, I + 2):
            term = term.div_atom(
                ("raw", qint(1 + ns[j - 1] + sum(ns[: j - 1]) + sum(ms[: j - 1])))
            )
        lhs = lhs + term
    rhs = _frac(qint(M), qint(M + Nn + 1))
    return lhs, rhs


def lemma_app2(ms, x):
    I = len(ms)
    lhs = R_ZERO
    for i in range(1, I + 1):
        Mi1 = sum(ms[: i - 1])
        Mi = sum(ms[:i])
        lhs = lhs + _frac(qint(ms[i - 1]), qint(x + Mi1), qint(x + Mi))
    rhs = _frac(qint(sum(ms)), qint(x), qint(x + sum(ms)))
    return lhs, rhs


def lemma_app8(ms, ns):
    I = len(ms)
    assert len(ns) == I

    def v(i):
        return sum(ns[: i - 1]) + sum(ms[: i - 1])

    first = _r(_mono(1, sum(ms)))
    first = first.div_atom(("raw", qint(v(I + 1))))
    for j in range(1, I + 1):
        first = first.mul_ring(qint(ns[j - 1] + v(j)))
        if j >= 2:
            first = first.div_atom(("raw", qint(v(j))))
    # j = 1 has v(1) = 0 and [0] = 0; the lemma's products implicitly start
    # the telescoping at v(1) = n_1 ... guard against that by requiring the
    # caller to pass parameters with v(j) > 0 for j >= 2.
    lhs = first
    for i in range(1, I + 1):
        term = _r(_mono(1, -sum(ns[:i])) * qint(ms[i - 1]))
        term = term.div_atom(("raw", qint(v(i)))) if v(i) else term
        term = term.div_atom(("raw", qint(v(i + 1))))
        for j in range(1, i):
            term = term.mul_ring(qint(ns[j - 1] + v(j)))
            if v(j):
                term = term.div_atom(("raw", qint(v(j))))
        lhs = lhs + term
    return lhs, R_ONE


def lemma_app9(ms, ns):
    I = len(ms)
    assert len(ns) == I

    def v(i):
        return sum(ms[: i - 1]) + sum(ns[: i - 1])

    lhs = R_ZERO
    for i in range(1, I + 1):
        term = _r(_mono(1, -sum(ns[: i - 1]) - 1) * qint(ms[i - 1]))
        term = term.div_atom(("raw", qint(1 + v(i))))
        term = term.div_atom(("raw", qint(1 + v(i + 1))))
        for j in range(i + 1, I + 1):
            term = term.mul_ring(qint(1 + ms[j - 1] + v(j)))
            term = term.div_atom(("raw", qint(1 + v(j + 1))))
        lhs = lhs + term
    rhs = R_ONE
    for j in range(1, I + 1):
        rhs = rhs.mul_ring(qint(1 + ms[j - 1] + v(j)))
        rhs = rhs.div_atom(("raw", qint(1 + v(j + 1))))
    rhs = rhs - _frac(_mono(1, sum(ms)), qint(1 + v(I + 1)))
    return lhs, rhs


def lemma_app10(ms, ns):
    I = len(ms)
    assert len(ns) == I

    def v(i):
        return sum(ns[: i - 1]) + sum(ms[: i - 1])

    def w(i):
        return 1 + ns[i - 1] + v(i) if i <= I else 1 + v(i)

    # w_{I+1} = 1 + n_{I+1} + v_{I+1}; the lemma uses lists of equal length
    # so w at I+1 is read as 1 + v_{I+1}.
    lhs = R_ZERO
    for i in range(1, I + 1):
        term = _r(_mono(1, -sum(ns[:i])) * qint(ms[i - 1]))
        term = term.div_atom(("raw", qint(w(i))))
        term = term.div_atom(("raw", qint(w(i + 1))))
        for k in range(i + 2, I + 2):
            term = term.mul_ring(qint(1 + v(k)))
            term = term.div_atom(("raw", qint(w(k))))
        for k in range(1, i):
            term = term.mul_ring(qint(ns[k - 1] + v(k)))
            term = term.div_atom(("raw", qint(v(k + 1))))
        brace = _r(_mono(1, sum(ms[: i - 1])) * (RingElem.const(1) + _mono(1, -2)))
        brace = brace - _frac(
            _mono(1, -sum(ns[:i]) - 1) * qint(ms[i - 1] - 1), qint(v(i + 1))
        )
        lhs = lhs + term * brace
    lhs = lhs.mul_ring(_mono(1, -sum(ms) + 1))
    rhs = _r(_mono(1, -sum(ms)))
    for j in range(1, I + 2):
        rhs = rhs.mul_ring(qint(1 + v(j)))
        rhs = rhs.div_atom(("raw", qint(w(j))))
    second = _frac(_mono(1, sum(ms)), qint(w(I + 1)))
    for j in range(1, I + 1):
        second = second.mul_ring(qint(ns[j - 1] + v(j)))
        second = second.div_atom(("raw", qint(v(j + 1))))
    rhs = rhs - second
    return lhs, rhs


def lemma_app11(ms, ns):
    I = len(ms)
    assert len(ns) == I

    # Same partial-sum convention as the neighbouring identities:
    # v_i sums strictly below i, and the last w has no arrow term.
    def v(i):
        return sum(ns[: i - 1]) + sum(ms[: i - 1])

    def w2(i):
        if i <= I:
            return 1 + ns[i - 1] + v(i)
        return 1 + v(i)

    lhs = R_ZERO
    for i in range(1, I + 1):
        term = _r(_mono(1, -1 - sum(ns[:i])) * qint(ms[i - 1]))
        term = term.div_atom(("raw", qint(w2(i))))
        term = term.div_atom(("raw", qint(w2(i + 1))))
        for j in range(i + 2, I + 2):
            term = term.mul_ring(qint(1 + v(j)))
            term = term.div_atom(("raw", qint(w2(j))))
        lhs = lhs + term
    rhs = R_ONE
    for i in range(1, I + 2):
        rhs = rhs.mul_ring(qint(1 + v(i)))
        rhs = rhs.div_atom(("raw", qint(w2(i))))
    rhs = rhs - _frac(_mono(1, sum(ms)), qint(w2(I + 1)))
    return lhs, rhs


def lemma_app13(ms, x, z):
    K = len(ms)

    def Ifac(i):
        out = R_ONE
        for j in range(1, i + 1):
            out = out.mul_ring(qint(2 + 2 * z + 2 * sum(ms[j - 1 :])))
            out = out.div_atom(
                ("raw", qint(2 + 2 * z + ms[j - 1] + 2 * sum(ms[j:])))
            )
        return out

    def Jfac(i):
        num = qint(ms[i - 1]) * qint(
            x + 3 + 2 * z + sum(ms[:i]) + 2 * sum(ms[i:])
        )
        return _frac(num, qint(1 + x + sum(ms[: i - 1])), qint(1 + x + sum(ms[:i])))

    lhs = R_ZERO
    for i in range(1, K + 1):
        lhs = lhs + Ifac(i) * Jfac(i)
    lhs = lhs + Ifac(K).mul_ring(qint(2 * z + 2)).div_atom(
        ("raw", qint(1 + x + sum(ms)))
    )
    rhs = _frac(qint(2 + 2 * z + 2 * sum(ms)), qint(1 + x))
    return lhs, rhs


def lemma_app15(ms, ns):
    I = len(ms)
    assert len(ns) == I

    def v(i):
        return sum(ns[:i]) + sum(ms[:i])

    lhs = R_ZERO
    for i in range(1, I + 1):
        term = _r(_mono(1, -sum(ns[:i])) * qint(ms[i - 1]))
        term = term.div_atom(("raw", qint(v(i))))
        for l in range(1, i):
            term = term.mul_ring(qint(ns[l - 1] + v(l - 1)))
            term = term.div_atom(("raw", qint(v(l))))
        lhs = lhs + term
    rhs = R_ONE
    prod = _r(_mono(1, sum(ms)))
    for l in range(1, I + 1):
        prod = prod.mul_ring(qint(ns[l - 1] + v(l - 1)))
        prod = prod.div_atom(("raw", qint(v(l))))
    rhs = rhs - prod
    return lhs, rhs


def lemma_app16(ms, ns):
    I = len(ms)
    assert len(ns) == I

    def v(i):
        return sum(ns[:i]) + sum(ms[:i])

    lhs = R_ZERO
    for i in range(1, I + 1):
        term = _r(_mono(1, -sum(ns[:i])) * qint(ms[i - 1]))
        term = term.div_atom(("raw", qint(1 + ns[i - 1] + v(i - 1))))
        for j in range(i + 1, I + 1):
            term = term.mul_ring(qint(1 + v(j)))
            term = term.div_atom(("raw", qint(1 + ns[j - 1] + v(j - 1))))
        lhs = lhs + term
    rhs = _r(_mono(1, 1))
    for j in range(1, I + 1):
        rhs = rhs.mul_ring(qint(1 + v(j)))
        rhs = rhs.div_atom(("raw", qint(1 + ns[j - 1] + v(j - 1))))
    rhs = rhs - _r(_mono(1, 1 + sum(ms)))
    return lhs, rhs


def lemma_app17(ms, ns):
    I = len(ms)
    assert len(ns) == I

    def v(i):
        return sum(ns[:i]) + sum(ms[:i])

    lhs = R_ZERO
    for i in range(1, I + 1):
        term = _r(_mono(1, -sum(ns[:i])) * qint(ms[i - 1]))
        term = term.div_atom(("raw", qint(1 + ns[i - 1] + v(i - 1))))
        for j in range(1, i):
            term = term.mul_ring(qint(ns[j - 1] + v(j - 1)))
            term = term.div_atom(("raw", qint(v(j))))
        for j in range(i + 1, I + 1):
            term = term.mul_ring(qint(1 + v(j)))
            term = term.div_atom(("raw", qint(1 + ns[j - 1] + v(j - 1))))
        brace = _r(
            _mono(1, sum(ms[: i - 1])) * (RingElem.const(1) + _mono(1, -2))
        )
        brace = brace - _frac(
            _mono(1, -1 - sum(ns[:i])) * qint(ms[i - 1] - 1), qint(v(i))
        )
        lhs = lhs + term * brace
    rhs = _r(_mono(1, -1))
    for j in range(1, I + 1):
        rhs = rhs.mul_ring(qint(1 + v(j)))
        rhs = rhs.div_atom(("raw", qint(1 + ns[j - 1] + v(j - 1))))
    second = _r(_mono(1, 2 * sum(ms) - 1))
    for j in range(1, I + 1):
        second = second.mul_ring(qint(ns[j - 1] + v(j - 1)))
        second = second.div_atom(("raw", qint(v(j))))
    rhs = rhs - second
    return lhs, rhs


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
    v = {N + 2: RingElem.const(1), N + 1: a_diag[N + 1]}
    for i in range(N, 0, -1):
        offprod = _mono(1, N - 2 * i + 1) * qint(i) * qint(N + 1 - i)
        v[i] = a_diag[i] * v[i + 1] - offprod * v[i + 2]
    return v


def tridiag_v_closed(N: int, lam: int, n: int) -> RingElem:
    m = N + 2 - n
    out = RingElem.zero()
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
            direct = qQ_bracket(0).mul_ring(_mono(1, N + 2 - 2 * i)) - x
            if direct != _r(tridiagonal_entry(N, lam, i)):
                return False
        v = tridiag_v_sequence(N, lam)
        if not v[1].is_zero():
            ok = False
        for n in range(1, N + 2):
            if v[n] != tridiag_v_closed(N, lam, n):
                ok = False
    return ok


# -- harness -------------------------------------------------------------------


def _random_lists(rng: random.Random, max_len=3, max_entry=3, n_zero_ok=True):
    I = rng.randint(1, max_len)
    ms = [rng.randint(1, max_entry) for _ in range(I)]
    ns = [rng.randint(0 if n_zero_ok else 1, max_entry) for _ in range(I)]
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
    rng = random.Random(seed)
    for _ in range(draws):
        if not verify_qidentity(lemma, random_params(lemma, rng)):
            return False
    return True
