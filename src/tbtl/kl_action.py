"""Diagrammatic action of e_i, e_N, e_0 and the coideal generator X on the
four decorated bases.

Every rewrite is expressed as a coefficient times the basis element of a
flipped binary string; decorations of the result are recomputed from the
string, never patched.  e_i is one join rule and e_0 one pair-then-prepend
rule, both read from the block vectors for every family.  Type A's e_N is
the mirror of e_0; the B families' e_N pairs site N's block (basis.arrow)
with the boundary covector, and only BI and BIII add a re-ranking sum.  The
conjugated standard-basis action provides an independent oracle
(crosscheck_vs_standard) for every generator and X.
"""

from __future__ import annotations

from .basis import (
    Diagram,
    arrow,
    build_diagram,
    down_block_alpha,
    enumerate_strings,
    flip,
    match_arcs,
    reflect,
    specialize,
    standard_to_kl,
    transition_matrix,
)
from .ring import ONE, R_ONE, RatioElem, RingElem, angle, qint, qQ_bracket, qshift
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


# -- e_i, 1 <= i <= N-1 ----------------------------------------------------


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
    x, y = arrow(left), arrow(right)
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


# -- e_N --------------------------------------------------------------------


def apply_eN_kl(tag: str, D: Diagram) -> Vec:
    """e_N on a basis diagram.

    Type A's e_N is the mirror of e_0: reflect, apply e_0, reflect back and
    exchange Q and Q0.  In the B families e_N is (v_- - Q^-1 v_+)
    <v_+* - Q v_-*| on site N (algebra._E_N), and v_- - Q^-1 v_+ is the
    block of the rightmost decorated down (BII's o, BIII's circle 1, BI's
    label M at Q = q^M).  A single arrow a v_- + b v_+ at N pairs to b - Q a
    times KL of the string with N lowered: 1 for an up, a loop for the down.
    An arc (h, N) leaves v_- + Q q^-1 v_+ at h: in BII the e block of the new
    rank-2 down, and the other marks move two ranks, keeping their letters.
    BIII and BI re-rank their circles and labels, as the paper writes them.
    """
    s = D.string
    if tag == "A":
        image = apply_e0_kl("A", build_diagram("A", reflect(s)))
        return {reflect(s2): _swap_Q_Q0(c) for s2, c in image.items()}

    kind = D.site_kind(D.N)
    lowered = flip(s, {D.N: "-"})
    single = arrow(kind)
    if single:
        a, b = single
        return specialize({lowered: RatioElem(b - _mono(1, 0, 1) * a)}, tag, D.M)
    if tag == "BII":
        return {lowered: R_ONE}
    if tag == "BIII":
        # the arc's left end, then the circles 1, 2, ... (right to left); the
        # k-th raised site has coefficient Q q^{-k} + Q^{-1} q^k = qshift(-k)
        sites = [kind[1]] + [site for site, _ in reversed(D.circles)]
        raised = [(site, qshift(-k)) for k, site in enumerate(sites, start=1)]
    elif tag == "BI":
        # with the arc's left end as label M + 1, each label p from
        # max(first label, 2) up is raised with coefficient <p - 2>, 1 at p = 2
        sites = D.label_sites() | {D.M + 1: kind[1]}
        raised = [(sites[p], ONE if p == 2 else angle(p - 2))
                  for p in range(max(D.first_label(), 2), D.M + 2)]
    else:
        raise ValueError(tag)
    return {lowered: R_ONE} | {flip(lowered, {site: "+"}): RatioElem(c) for site, c in raised}


def _swap_Q_Q0(c: RatioElem) -> RatioElem:
    """Exchange Q and Q0 in a coefficient (the type A mirror)."""
    return c.remap(lambda e, f, g: (e, g, f))


# -- e_0 --------------------------------------------------------------------


def _prepend(tag: str, M: int | None, a: RingElem, b: RingElem, t: str):
    """(a v_- + b v_+) (x) KL(t) as [(coefficient, basis string)], the strings
    one site longer than t.

    v_+ (x) KL(t) is KL(+t).  v_- beside t's first up is that arc plus q^-1
    times the arrows swapped, so v_- walks along t's ups: KL(-t) + sum_k
    q^-k KL(+t with t's k-th up lowered).  The v_- that is left, at t's last
    up (site 1 if t has none), settles into the block that the diagram of +t
    with that up lowered puts there: a decorated down v_- - alpha v_+ leaves
    alpha KL(+t), and a BI dashed arc with t's bare down d, v_- v_- - q^-1
    v_+ v_+, leaves q^-1 KL(+t with d raised).
    """
    up = "+" + t
    ups = match_arcs(up)[1]  # site 1, then t's ups one site on
    terms = [(b, up), (a, "-" + t)]
    terms += [(a * _mono(1, -k), flip(up, {u: "-"})) for k, u in enumerate(ups[1:], start=1)]
    last = ups[-1]
    kind = build_diagram(tag, flip(up, {last: "-"}), M).site_kind(last)
    settle = a * _mono(1, 1 - len(ups))
    if kind[0] == "dash_l":
        terms.append((settle * _mono(1, -1), flip(up, {kind[1]: "+"})))
    else:
        terms.append((settle * down_block_alpha(kind), up))
    return terms


def apply_e0_kl(tag: str, D: Diagram) -> Vec:
    """e_0 on a basis diagram: one rule for every family.

    e_0 is (v_- - Q0 v_+) <v_+* - Q0^-1 v_-*| on site 1 (algebra._E_0).  The
    covector pairs with site 1's block.  A single arrow a v_- + b v_+ gives
    b - a/Q0 times KL of the rest.  An arc (1, j) leaves the arrow -q^-1 v_-
    - Q0^-1 v_+ at j, and a dashed arc the same with v_- and v_+ swapped;
    that arrow is prepended to the sites after j, behind the balanced arcs
    inside (1, j).  Then v_- - Q0 v_+ is prepended at site 1.
    """
    s = D.string
    kind = D.site_kind(1)
    single = arrow(kind)
    if single:
        a, b = single
        rest = [(b - a * _mono(1, 0, 0, -1), s[1:])]
    else:
        j = kind[1]
        a, b = _mono(-1, -1), _mono(-1, 0, 0, -1)
        if kind[0] == "dash_l":
            a, b = b, a
        rest = [(c, s[1 : j - 1] + t) for c, t in _prepend(tag, D.M, a, b, s[j:])]
    out: Vec = {}
    for c, t in rest:
        for c2, s2 in _prepend(tag, D.M, ONE, _mono(-1, 0, 0, 1), t):
            _accumulate(out, s2, RatioElem(c * c2))
    return out


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

    T is the shared transition matrix (KL columns in the standard basis),
    read as it is, E the standard matrix of the generator and K its diagram
    action.  Each column is checked as E T[s] == T K[s] by
    identity_mismatches, with no inverse of T.  This is the conjugation
    claim because T is unitriangular, which the klbasis check
    (validate_kl_conditions) verifies: then T is invertible and E T[s] ==
    T K[s] holds exactly when T^{-1} E T[s] == K[s].  Only a column that
    differs is back-substituted (standard_to_kl), to name the rows where it
    differs from K.

    Returns (ok, mismatches) where mismatches lists the differing
    (column, row) pairs of basis strings.
    """
    E = {s: specialize(col, tag, M) for s, col in generator_matrix(N, gen).items()}
    T = transition_matrix(tag, N, M)
    K = kl_operator(tag, N, gen, M)
    mismatches = []
    for s, *_ in identity_mismatches(unit_columns(N), [(R_ONE, (E, T))], [(R_ONE, (T, K))]):
        conjugated = standard_to_kl(op_apply(E, T[s]), tag, N, M)
        mismatches.extend((s, row) for row, _, _ in vector_mismatches(conjugated, K[s]))
    return (not mismatches), mismatches
