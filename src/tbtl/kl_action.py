"""Diagrammatic action of e_i, e_N, e_0 and the coideal generator X on the
four decorated bases.

Every rewrite is expressed as a coefficient times the basis element of a
flipped binary string; decorations of the result are recomputed from the
string, never patched.  The conjugated standard-basis action provides an
independent oracle (crosscheck_vs_standard) for every generator and X.
"""

from __future__ import annotations

from .basis import (
    DOWN_KINDS,
    Diagram,
    build_diagram,
    down_block_alpha,
    enumerate_strings,
    flip,
    reflect,
    specialize,
    standard_to_kl,
    transition_matrix,
)
from .ring import ONE, R_ONE, ZERO, RatioElem, RingElem, angle, qint, qQ_bracket, qshift
from .algebra import (
    Op,
    Vec,
    _accumulate,
    generator_matrix,
    identity_mismatches,
    op_apply,
    unit_columns,
    vector_mismatches,
)

_mono = RingElem.mono
_DQ0 = _mono(1, 0, 0, 1) - _mono(1, 0, 0, -1)  # Q0 - 1/Q0
_ONE_Q2 = ONE + _mono(1, 2)  # 1 + q^2


# -- e_i, 1 <= i <= N-1 ----------------------------------------------------


def _single_vector(kind):
    """(a, b) for a single arrow a v_- + b v_+: an up is (0, 1), a decorated
    down (1, -alpha); None for the end of an arc or a dashed arc."""
    if kind[0] == "up":
        return ZERO, ONE
    if kind[0] in DOWN_KINDS:
        return ONE, -down_block_alpha(kind)
    return None


def apply_ei_kl(tag: str, D: Diagram, i: int) -> Vec:
    """e_i on a basis diagram, returned over basis strings of the same family.

    e_i caps (i, i+1), with <v_- v_+> = -q and <v_+ v_-> = 1 (algebra._E_BULK),
    and cups a new arc there.  A solid arc on (i, i+1) is a loop, -[2]; a
    dashed one gives 0.  Otherwise i -> '-', i+1 -> '+', and the two blocks
    that met are joined.  Two single arrows a v_- + b v_+ and a' v_- + b' v_+
    give the cap value b a' - q a b'.  A single arrow beside a block moves to
    the block's far end, which is '-' iff a != 0 for an arc and iff b != 0 for
    a dashed arc (it swaps v_- and v_+).  Two block ends join their far ends
    h < j: h -> '-', and j -> '+' if the blocks are of one type, '-'
    otherwise.  Every coefficient but the cap value is 1.
    """
    if not 1 <= i <= D.N - 1:
        raise ValueError("bulk generator index out of range")
    left, right = D.site_kind(i), D.site_kind(i + 1)
    if left == ("arc_l", i + 1):
        return {D.string: RatioElem(-qint(2))}
    if left == ("dash_l", i + 1):
        return {}
    changes = {i: "-", i + 1: "+"}
    c = ONE
    x, y = _single_vector(left), _single_vector(right)
    if x and y:
        (a, b), (a2, b2) = x, y
        c = b * a2 - _mono(1, 1) * a * b2
    elif x or y:
        a, b = x or y
        end = right if x else left
        changes[end[1]] = "-" if (a if end[0].startswith("arc") else b) else "+"
    else:
        h, j = sorted((left[1], right[1]))
        changes[h] = "-"
        changes[j] = "+" if left[0].startswith("arc") == right[0].startswith("arc") else "-"
    return {flip(D.string, changes): RatioElem(c)} if c else {}


# -- coefficient c_{(j,i)} ---------------------------------------------------


def coeff_c(j: int, i: int) -> RingElem:
    """The two-arc coefficient of the boundary cascade; i < j."""
    if i == 1:
        return _mono(1, -j + 2)
    if j == i + 1:
        return _mono(1, -2 * i + 2)
    return _mono(1, -i - j + 3) + _mono(1, -i - j + 5)


def _cascade(out: Vec, base: str, sites: list[int], ch: str):
    """The two-arc terms of the boundary cascade: -c_{(j,i)}/q times base with
    the i-th and j-th of the sites set to ch, for every i < j."""
    for i in range(1, len(sites)):
        for j in range(i + 1, len(sites) + 1):
            c = -(_mono(1, -1) * coeff_c(j, i))
            _accumulate(out, flip(base, {sites[i - 1]: ch, sites[j - 1]: ch}), RatioElem(c))


# -- e_N --------------------------------------------------------------------


def apply_eN_kl(tag: str, D: Diagram) -> Vec:
    N = D.N
    s = D.string
    kind = D.site_kind(N)
    out: Vec = {}
    M = D.M

    if tag == "A":
        if kind == ("up",):
            _accumulate(out, flip(s, {N: "-"}), R_ONE)
            _accumulate(out, s, RatioElem(_mono(-1, 0, -1)))
            return out
        if kind == ("down",):
            for idx, site in enumerate(reversed(D.downs), start=1):
                _accumulate(out, flip(s, {site: "+"}), RatioElem(_mono(1, -(idx - 1))))
            _accumulate(out, s, RatioElem(_mono(-1, 0, 1)))
            return out
        if kind[0] == "arc_r":
            base = flip(s, {N: "-"})
            downs = [N, kind[1], *reversed(D.downs)]  # right to left in D~
            _accumulate(out, base, R_ONE)
            _accumulate(out, s, RatioElem(_mono(-1, 0, -1)))
            qfac = _mono(1, -1, 1) - _mono(1, -1, -1)  # (Q - 1/Q)/q
            for idx, site in enumerate(downs[1:]):
                _accumulate(out, flip(base, {site: "+"}), RatioElem(qfac * _mono(1, -idx)))
            _cascade(out, base, downs, "+")
            return out
        raise AssertionError(f"site N of type A diagram is {kind}")

    if tag == "BII":
        if kind == ("up",) or kind[0] == "arc_r":
            _accumulate(out, flip(s, {N: "-"}), R_ONE)
            return out
        if kind == ("mark", "o"):
            _accumulate(out, s, RatioElem(-(_mono(1, 0, 1) + _mono(1, 0, -1))))
            return out
        raise AssertionError(f"site N of type BII diagram is {kind}")

    if tag == "BIII":
        if kind == ("up",):
            _accumulate(out, flip(s, {N: "-"}), R_ONE)
            return out
        if kind == ("circle", 1):
            _accumulate(out, s, RatioElem(-(_mono(1, 0, 1) + _mono(1, 0, -1))))
            return out
        if kind[0] == "arc_r":
            base = flip(s, {N: "-"})
            # the arc's left end, then the circles 1, 2, ... (right to left); the
            # k-th raised site has coefficient Q q^{-k} + Q^{-1} q^k = qshift(-k)
            sites = [kind[1]] + [site for site, _ in reversed(D.circles)]
            _accumulate(out, base, R_ONE)
            for k, site in enumerate(sites, start=1):
                _accumulate(out, flip(base, {site: "+"}), RatioElem(qshift(-k)))
            return out
        raise AssertionError(f"site N of type BIII diagram is {kind}")

    if tag == "BI":
        if kind == ("up",):
            _accumulate(out, flip(s, {N: "-"}), R_ONE)
            return out
        label_sites = D.label_sites()
        if label_sites.get(M) == N:
            _accumulate(out, s, RatioElem(-angle(M)))
            return out
        if kind[0] == "arc_r":
            base = flip(s, {N: "-"})
            r = D.first_label()
            label_sites[M + 1] = kind[1]
            start = max(r, 2)
            _accumulate(out, base, R_ONE)
            c = ONE if r <= 2 else angle(r - 2)
            _accumulate(out, flip(base, {label_sites[start]: "+"}), RatioElem(c))
            for k in range(start, M + 1):
                _accumulate(
                    out, flip(base, {label_sites[k + 1]: "+"}), RatioElem(angle(k - 1))
                )
            return out
        raise AssertionError(f"site N of type BI diagram is {kind}")
    raise ValueError(tag)


# -- e_0 --------------------------------------------------------------------


def _prepend_down_bii(tail: str) -> list[tuple[RingElem, str]]:
    """KL expansion of a bare down arrow prepended to a canonical tail:
    v_- (x) KL(E) = KL(-E) + sum_l q^{-l} KL(+ E with l-th up flipped)
    + beta KL(+E), beta = q^{-k}/Q (leftmost mark e or none) or -q^{-k-1} Q."""
    if not tail:
        return [(ONE, "-"), (_mono(1, 0, -1), "+")]
    E = build_diagram("BII", tail)
    terms = [(ONE, "-" + tail)]
    for idx, u in enumerate(E.ups, start=1):
        terms.append((_mono(1, -idx), "+" + flip(tail, {u: "-"})))
    k = len(E.ups)
    if E.leftmost_mark() == "o":
        beta = _mono(-1, -k - 1, 1)
    else:
        beta = _mono(1, -k, -1)
    terms.append((beta, "+" + tail))
    return terms


def _local_down_action(alpha: RingElem, s: str, out: Vec):
    """e_0 on a decorated down arrow at site 1 with block v_- - alpha v_+:
    -(1/Q0 + alpha) D + (1 + alpha (Q0 - 1/Q0) - alpha^2) (site 1 -> +)."""
    c_diag = -(_mono(1, 0, 0, -1) + alpha)
    c_up = ONE + alpha * _DQ0 - alpha * alpha
    _accumulate(out, s, RatioElem(c_diag))
    _accumulate(out, flip(s, {1: "+"}), RatioElem(c_up))


def apply_e0_kl(tag: str, D: Diagram) -> Vec:
    s = D.string
    out: Vec = {}

    if tag == "A":
        # reflection trick: e_0 = u e_N u with Q -> Q0
        mirrored = build_diagram("A", reflect(s))
        image = apply_eN_kl("A", mirrored)
        for s2, c in image.items():
            _accumulate(out, reflect(s2), _swap_Q_Q0(c))
        return out

    kind = D.site_kind(1)
    if kind[0] in DOWN_KINDS:
        _local_down_action(down_block_alpha(kind), s, out)
        return out
    n_up = len(D.ups)

    if kind == ("up",):
        for idx, site in enumerate(D.ups, start=1):
            _accumulate(out, flip(s, {site: "-"}), RatioElem(_mono(1, -(idx - 1))))
        # the diagonal is -Q0 plus a term of the family
        if tag == "BII" and D.leftmost_mark() == "o":
            c = -_mono(1, -n_up, 1)  # -Q q^{-n}
        elif tag == "BII":
            c = _mono(1, -n_up + 1, -1)  # q^{1-n}/Q
        elif tag == "BIII":
            c = _mono(1, -n_up + len(D.circles) + 1, -1)  # q^{1-n+r}/Q
        elif D.unpaired_down is not None:
            _accumulate(out, flip(s, {D.unpaired_down: "+"}), RatioElem(_mono(1, -n_up)))
            c = ZERO
        else:
            r = D.first_label()
            c = ZERO if r == 1 else _mono(1, -(r + n_up - 2))
        _accumulate(out, s, RatioElem(c - _mono(1, 0, 0, 1)))
        return out

    if tag == "BII" and kind[0] == "arc_l":
        # e_0 on the arc block gives, over the pure tensors at (1, j):
        #   -1/Q0 (arc) + (++) + (Q0 - 1/Q0)/q (+-) - 1/q (--),
        # and the mixed tensors are re-expanded via the prepend-down
        # identities, which is what the boundary cascades amount to.
        j = kind[1]
        _accumulate(out, s, RatioElem(_mono(-1, 0, 0, -1)))
        _accumulate(out, flip(s, {1: "+"}), R_ONE)
        middle = s[1 : j - 1]
        tail = s[j:]
        for c_a, t_a in _prepend_down_bii(tail):
            full = "+" + middle + t_a
            _accumulate(out, full, RatioElem(_mono(1, -1) * _DQ0 * c_a))
            for c_b, t_b in _prepend_down_bii(middle + t_a):
                _accumulate(out, t_b, RatioElem(_mono(-1, -1) * c_a * c_b))
        return out

    if tag == "BIII" and kind[0] == "arc_l":
        base = flip(s, {1: "+"})
        ups = [1, kind[1], *D.ups]
        r = len(D.circles)
        _local_down_action(_mono(1, -n_up + r - 1, -1), s, out)  # q^{-n+r-1}/Q
        for idx in range(2, n_up + 3):
            ctilde = _mono(1, -(idx - 1)) * _DQ0 - _mono(1, -n_up + r - idx, -1) * _ONE_Q2
            _accumulate(out, flip(base, {ups[idx - 1]: "-"}), RatioElem(ctilde))
        _cascade(out, base, ups, "-")
        return out

    if tag == "BI" and kind[0] == "dash_l":
        j = kind[1]
        _accumulate(out, s, RatioElem(_mono(-1, 0, 0, -1)))
        _accumulate(out, flip(s, {1: "+"}), RatioElem(ONE - _mono(1, -2)))
        _accumulate(out, flip(s, {1: "+", j: "+"}), RatioElem(_mono(1, -1) * _DQ0))
        _accumulate(out, flip(s, {j: "+"}), RatioElem(_mono(-1, -1)))
        return out

    if tag == "BI" and kind[0] == "arc_l":
        base = flip(s, {1: "+"})
        ups = [1, kind[1], *D.ups]
        r = D.first_label()
        d = D.unpaired_down
        if d is not None:
            _accumulate(out, base, RatioElem(ONE - _mono(1, -2 * n_up - 4)))
            _accumulate(out, s, RatioElem(_mono(-1, 0, 0, -1)))
            for idx in range(2, n_up + 3):
                c = _mono(1, -(idx - 1)) * _DQ0
                _accumulate(out, flip(base, {ups[idx - 1]: "-"}), RatioElem(c))
            _accumulate(out, flip(base, {d: "+"}), RatioElem(_mono(1, -(n_up + 2)) * _DQ0))
            _accumulate(
                out,
                flip(base, {ups[n_up + 1]: "-", d: "+"}),
                RatioElem(_mono(-1, -2 * n_up - 3)),
            )
            for i2 in range(1, n_up + 2):
                extra = _ONE_Q2 if i2 != 1 else ONE
                c = -(_mono(1, -1) * _mono(1, -n_up - i2) * extra)
                _accumulate(out, flip(base, {ups[i2 - 1]: "-", d: "+"}), RatioElem(c))
        elif r == 1:
            _accumulate(out, base, RatioElem(ONE - _mono(1, -2 * n_up - 2)))
            _accumulate(out, s, RatioElem(_mono(-1, 0, 0, -1)))
            for idx in range(2, n_up + 3):
                c = _mono(1, -1) * _DQ0 * _mono(1, -(idx - 2))
                _accumulate(out, flip(base, {ups[idx - 1]: "-"}), RatioElem(c))
        else:
            _local_down_action(_mono(1, -n_up - r), s, out)
            for idx in range(2, n_up + 3):
                extra = ONE if r == 2 and idx == n_up + 2 else _ONE_Q2
                ctilde = _mono(1, -(idx - 1)) * _DQ0 - _mono(1, -n_up - r - idx + 1) * extra
                _accumulate(out, flip(base, {ups[idx - 1]: "-"}), RatioElem(ctilde))
        _cascade(out, base, ups, "-")
        return out
    raise AssertionError(f"site 1 of type {tag} diagram is {kind}")


def _swap_Q_Q0(c: RatioElem) -> RatioElem:
    """Exchange Q and Q0 in a coefficient (used by the type A reflection)."""
    return c.remap(lambda e, f, g: (e, g, f))


# -- the coideal generator X --------------------------------------------------


def apply_X_kl(tag: str, D: Diagram) -> Vec:
    """The displayed action of X on a basis diagram."""
    s = D.string
    out: Vec = {}
    n_up = len(D.ups)
    for i, u in enumerate(D.ups, start=1):
        _accumulate(out, flip(s, {u: "-"}), RatioElem(qint(i)))

    if tag == "A":
        wt = n_up - len(D.downs)
        for i, d in enumerate(reversed(D.downs), start=1):
            _accumulate(out, flip(s, {d: "+"}), RatioElem(_mono(1, wt + 1) * qint(i)))
        _accumulate(out, s, qQ_bracket(0) * RatioElem(_mono(1, wt)))
        return out

    if tag == "BI":
        if D.unpaired_down is not None:
            # the (N_up)-th move pairs the last up with the unpaired down
            # into a dashed arc, which is the same string flip; the extra
            # move turns the unpaired down into an up.
            _accumulate(
                out, flip(s, {D.unpaired_down: "+"}), RatioElem(qint(n_up + 1))
            )
        elif (r := D.first_label()) != 1:
            _accumulate(out, s, RatioElem(qint(n_up + r - 1)))
        return out

    if tag == "BII":
        n = -n_up - 1 if D.leftmost_mark() == "o" else n_up
        _accumulate(out, s, qQ_bracket(n))
        return out

    if tag == "BIII":
        _accumulate(out, s, qQ_bracket(n_up - len(D.circles)))
        return out
    raise ValueError(tag)


def apply_generator_kl(tag: str, D: Diagram, gen: str) -> Vec:
    if gen == "X":
        return apply_X_kl(tag, D)
    if gen == "eN":
        return apply_eN_kl(tag, D)
    if gen == "e0":
        return apply_e0_kl(tag, D)
    if gen.startswith("e"):
        return apply_ei_kl(tag, D, int(gen[1:]))
    raise ValueError(gen)


def kl_operator(tag: str, N: int, gen: str, M: int | None = None) -> Op:
    """e_g or X on a basis, column by column from the diagram rules; the
    standard basis takes its matrix."""
    if tag == "standard":
        return generator_matrix(N, gen)
    return {
        s: apply_generator_kl(tag, build_diagram(tag, s, M), gen)
        for s in enumerate_strings(N)
    }


def crosscheck_vs_standard(tag: str, N: int, gen: str, M: int | None = None):
    """Diagrammatic action of e_g or X == T^{-1} E_g T, exhaustively over
    basis diagrams (for BI after Q -> q^M).

    T is the transition matrix (KL columns in the standard basis), E the
    standard matrix of the generator and K its diagram action.  Each column
    is checked as E T[s] == T K[s] by identity_mismatches, with no inverse
    of T.  This is the conjugation claim because T is unitriangular, which
    the klbasis check (validate_kl_conditions) verifies: then T is
    invertible and E T[s] == T K[s] holds exactly when T^{-1} E T[s] ==
    K[s].  Only a column that differs is back-substituted (standard_to_kl),
    to name the rows where it differs from K.

    Returns (ok, mismatches) where mismatches lists the differing
    (column, row) pairs of basis strings.
    """
    E = {s: specialize(col, tag, M) for s, col in generator_matrix(N, gen).items()}
    T = {
        s: {s2: RatioElem(c) for s2, c in col.items()}
        for s, col in transition_matrix(tag, N, M).items()
    }
    K = kl_operator(tag, N, gen, M)
    mismatches = []
    for s, *_ in identity_mismatches(unit_columns(N), [(R_ONE, (E, T))], [(R_ONE, (T, K))]):
        conjugated = standard_to_kl(op_apply(E, T[s]), tag, N, M)
        mismatches.extend((s, row) for row, _, _ in vector_mismatches(conjugated, K[s]))
    return (not mismatches), mismatches
