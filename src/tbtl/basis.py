"""Binary strings, decorated diagrams and the change of basis they induce.

A basis element is indexed by a string over {+,-}.  The decoration of a
diagram (arcs, dashed arcs, star, integer labels, e/o marks, circled
integers) is a pure function of the string and the basis family, so
diagrams are rebuilt from strings rather than patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from operator import itemgetter
from types import MappingProxyType

from .ring import ONE, R_ONE, ZERO, RatioElem, RingElem, _atom_key

TAGS = ("A", "BI", "BII", "BIII")


def check_tag(tag: str, M=None):
    if tag not in TAGS:
        raise ValueError(f"unknown basis family {tag!r}")
    if tag == "BI":
        if M is None or M < 1:
            raise ValueError("family BI needs M >= 1")
    elif M is not None:
        raise ValueError(f"M is only meaningful for BI, got M={M} with {tag}")


def specialize(vec: dict, tag: str, M=None) -> dict:
    """Restrict coefficients to the family's parameters: BI lives at
    Q = q^M, every other family keeps Q free."""
    if tag != "BI":
        return vec
    return {s: c.subst_Q(M) for s, c in vec.items()}


def enumerate_strings(N: int) -> list[str]:
    """All strings of length N, '-' before '+' at each position, leftmost first."""
    if N < 1:
        raise ValueError("need N >= 1")
    return ["".join(s) for s in product("-+", repeat=N)]


def string_sort_key(s: str) -> str:
    # '-' < '+' in the paper's order but not in ASCII.
    return s.replace("-", "0").replace("+", "1")


def flip(s: str, changes: dict[int, str]) -> str:
    """Replace the symbols at the given 1-based sites."""
    chars = list(s)
    for i, c in changes.items():
        chars[i - 1] = c
    return "".join(chars)


def reflect(s: str) -> str:
    """Reverse the string and invert every arrow."""
    return "".join("+" if c == "-" else "-" for c in reversed(s))


@dataclass(frozen=True)
class Diagram:
    """A decorated diagram.  Every field tuple is sorted by site, so
    ``dashed[0]`` is the leftmost dashed arc and ``ups[-1]`` the rightmost
    up.  The rules read the BI labels and star, and the BII marks, through
    label_sites, first_label and leftmost_mark."""

    tag: str
    M: int | None
    string: str
    arcs: tuple = ()            # (i, j) pairs, i < j, sites 1-based
    dashed: tuple = ()          # BI only
    star: int | None = None     # BI only
    labels: tuple = ()          # BI: ((site, p), ...) with 2 <= p <= M
    unpaired_down: int | None = None  # BI only
    marks: tuple = ()           # BII: ((site, 'e'|'o'), ...)
    circles: tuple = ()         # BIII: ((site, k), ...), k counted from right
    ups: tuple = ()             # unpaired up sites
    downs: tuple = ()           # type A bare down sites

    @property
    def N(self) -> int:
        return len(self.string)

    def label_sites(self) -> dict[int, int]:
        """BI: label -> site, the star counted as label 1."""
        sites = {p: i for i, p in self.labels}
        if self.star is not None:
            sites[1] = self.star
        return sites

    def first_label(self) -> int:
        """BI: the smallest label (the star is 1), or M + 1 if there is none."""
        return min(self.label_sites(), default=self.M + 1)

    def leftmost_mark(self) -> str | None:
        """BII: the mark of the leftmost marked down, or None."""
        return self.marks[0][1] if self.marks else None

    def blocks(self):
        """All building blocks ordered by leftmost site: the one block order
        that site_kind and the closed-form ground state read."""
        out = [("arc", i, j) for (i, j) in self.arcs]
        out += [("dash", i, j) for (i, j) in self.dashed]
        out += [("up", i) for i in self.ups]
        out += [("down", i) for i in self.downs]
        if self.unpaired_down is not None:
            out.append(("down", self.unpaired_down))
        if self.star is not None:
            out.append(("star", self.star))
        out += [("label", i, p) for (i, p) in self.labels]
        out += [("mark", i, m) for (i, m) in self.marks]
        out += [("circle", i, k) for (i, k) in self.circles]
        out.sort(key=itemgetter(1))
        return out

    @cached_property
    def _site_kinds(self) -> dict:
        """Site -> block role, built once per diagram from blocks()."""
        kinds = {}
        for name, i, *rest in self.blocks():
            if name in ("arc", "dash"):
                kinds[i] = (f"{name}_l", rest[0])
                kinds[rest[0]] = (f"{name}_r", i)
            else:
                kinds[i] = (name, *rest)
        return kinds

    def site_kind(self, i: int):
        """Block role of site i: ('up',)/('down',)/('star',)/('label',p)/
        ('mark',m)/('circle',k)/('arc_l',j)/('arc_r',h)/('dash_l',j)/('dash_r',h)."""
        kind = self._site_kinds.get(i)
        if kind is None:
            raise ValueError(f"site {i} not classified in {self}")
        return kind

    def to_json(self) -> dict:
        data = {"type": self.tag, "string": self.string}
        if self.tag == "BI":
            data["M"] = self.M
        if self.arcs:
            data["arcs"] = [list(p) for p in self.arcs]
        if self.dashed:
            data["dashed"] = [list(p) for p in self.dashed]
        if self.star is not None:
            data["star"] = self.star
        if self.labels:
            data["labels"] = {str(i): p for i, p in self.labels}
        if self.unpaired_down is not None:
            data["unpaired_down"] = self.unpaired_down
        if self.marks:
            data["marks"] = {str(i): m for i, m in self.marks}
        if self.circles:
            data["circles"] = {str(i): k for i, k in self.circles}
        if self.ups:
            data["ups"] = list(self.ups)
        if self.downs:
            data["downs"] = list(self.downs)
        return data

    def serialize(self) -> str:
        parts = [self.string]
        parts += [f"arc({i},{j})" for i, j in self.arcs]
        parts += [f"dashed({i},{j})" for i, j in self.dashed]
        if self.star is not None:
            parts.append(f"star({self.star})")
        parts += [f"label({i},{p})" for i, p in self.labels]
        if self.unpaired_down is not None:
            parts.append(f"down({self.unpaired_down})")
        parts += [f"mark({i},{m})" for i, m in self.marks]
        parts += [f"circle({i},{k})" for i, k in self.circles]
        return " ; ".join(parts)


def match_arcs(string: str):
    """Rules (A)/(B): non-crossing pairing of '-' openers with '+' closers;
    the (arcs, ups, downs) of a string, which no decoration changes."""
    stack: list[int] = []
    arcs: list[tuple[int, int]] = []
    ups: list[int] = []
    for pos, c in enumerate(string, start=1):
        if c == "-":
            stack.append(pos)
        elif stack:
            arcs.append((stack.pop(), pos))
        else:
            ups.append(pos)
    downs = stack  # left to right
    return tuple(sorted(arcs)), tuple(ups), tuple(downs)


def make_diagram(tag: str, string: str, M: int | None = None) -> Diagram:
    """The decorated diagram of a string, built afresh; build_diagram is the
    cached lookup."""
    check_tag(tag, M)
    arcs, ups, downs = match_arcs(string)
    if tag == "A":
        return Diagram("A", None, string, arcs=arcs, ups=ups, downs=downs)
    if tag == "BII":
        # Marks alternate o, e, o, ... counted from the right.
        marks = tuple(
            (site, "o" if k % 2 == 1 else "e")
            for k, site in enumerate(reversed(downs), start=1)
        )
        return Diagram("BII", None, string, arcs=arcs, ups=ups,
                       marks=tuple(sorted(marks)))
    if tag == "BIII":
        circles = tuple(
            (site, k) for k, site in enumerate(reversed(downs), start=1)
        )
        return Diagram("BIII", None, string, arcs=arcs, ups=ups,
                       circles=tuple(sorted(circles)))
    # BI: label the rightmost downs M, M-1, ..., 2, then the star, then
    # pair what remains right-to-left into dashed arcs.
    rdowns = list(reversed(downs))
    labels = []
    star = None
    for k, site in enumerate(rdowns, start=1):
        p = M + 1 - k
        if p >= 2:
            labels.append((site, p))
        elif p == 1:
            star = site
        else:
            break
    rest = sorted(rdowns[M:])  # sites left of the star, ascending
    dashed = []
    while len(rest) >= 2:
        b = rest.pop()
        a = rest.pop()
        dashed.append((a, b))
    unpaired = rest[0] if rest else None
    return Diagram("BI", M, string, arcs=arcs, ups=ups,
                   dashed=tuple(sorted(dashed)), star=star,
                   labels=tuple(sorted(labels)), unpaired_down=unpaired)


# The operator rows of verify come back to a diagram and look it up here:
# kl_operator and transition_matrix read every basis diagram once per
# generator, and e_0's prepend rule and the coideal rows read them again.
# psi_vector, enumerate and the conjecture sweeps call make_diagram: table,
# sum, psi, enumerate and conjecture read each diagram once, and a table
# sweeps more diagrams than the cache keeps.  verify builds psi_vector's
# diagrams once more that way (BI, M=2, N=8: a few ms).  2^12 is one
# family's every string at N=12, the top of the frontier sweep.
@lru_cache(maxsize=4096)
def build_diagram(tag: str, string: str, M: int | None = None) -> Diagram:
    return make_diagram(tag, string, M)


# -- building-block vectors ---------------------------------------------

_Q = RingElem.mono
DOWN_KINDS = ("down", "star", "label", "mark", "circle")  # single down arrows


def down_block_alpha(kind) -> RingElem:
    """alpha in (v_{-1} - alpha v_1) for a decorated single down arrow."""
    name = kind[0]
    if name == "down":
        return ZERO
    if name == "star":
        return _Q(1, -1)
    if name == "label":
        return _Q(1, -kind[1])
    if name == "mark":
        return _Q(-1, -1, 1) if kind[1] == "e" else _Q(1, 0, -1)
    if name == "circle":
        return _Q(1, kind[1] - 1, -1)
    raise ValueError(kind)


def arrow(kind):
    """(a, b) for a single arrow a v_- + b v_+: an up is (0, 1) and a
    decorated down (1, -alpha); None for the end of an arc or a dashed arc.
    The one encoding of a single site that block_vector and the diagram
    rules read."""
    if kind[0] == "up":
        return ZERO, ONE
    if kind[0] in DOWN_KINDS:
        return ONE, -down_block_alpha(kind)
    return None


def block_vector(block) -> list[tuple[str, RingElem]]:
    """Expansion of a building block over local standard strings."""
    name = block[0]
    if name == "arc":
        return [("-+", ONE), ("+-", _Q(-1, -1))]
    if name == "dash":
        return [("--", ONE), ("++", _Q(-1, -1))]
    single = arrow((name,) + block[2:])
    if single is None:
        raise ValueError(block)
    return [(ch, c) for ch, c in zip("-+", single) if c]


def _block_sites(block):
    name = block[0]
    if name in ("arc", "dash"):
        return (block[1], block[2])
    return (block[1],)


def _accumulate(out: dict, s: str, c):
    """out[s] += c, in place; an entry that sums to zero is dropped."""
    if not c:
        return
    cur = out.get(s)
    nxt = c if cur is None else cur + c
    if not nxt:
        out.pop(s, None)
    else:
        out[s] = nxt


# -- the multiply-accumulate loop -------------------------------------------
# It lives here rather than in algebra, which imports this module, so that
# algebra's op_apply and identity_mismatches and standard_to_kl below share
# it.

def _products(A, v: dict, sign: int, plain: dict, fractional: dict) -> None:
    """Add sign * A v, term by term, into plain ({row: terms}, the products
    with no denominator) and fractional ({row: {den: terms}}).  A is an
    operator (algebra.Op), of which only the columns A[col] that v reads
    are read, or a RatioElem c, which stands for c times the identity.

    A fused multiply-accumulate loop (after Johnson 1974, Monagan and
    Pearce 2009): each product c * a of a vector entry c at column s and a
    matrix entry a of column s is summed into one plain {monomial: int}
    dict per (row, denominator), where the denominator is the multiset
    c.den + a.den sorted as RatioElem sorts it.  No product is built as an
    object: the outer loop runs over the factor with fewer terms, so a
    monomial factor (the common case) costs one pass over the other
    factor's terms, and a term is dropped as soon as its coefficient
    reaches 0.
    """
    scalar = isinstance(A, RatioElem)
    for col, c in v.items():
        ct = c.num.terms
        if not ct:
            continue
        if sign < 0:
            ct = {m: -k for m, k in ct.items()}
        cden = c.den
        for row, a in (((col, A),) if scalar else A[col].items()):
            at = a.num.terms
            aden = a.den
            if cden or aden:
                den = tuple(sorted(cden + aden, key=_atom_key)) if cden and aden else cden or aden
                groups = fractional.get(row)
                if groups is None:
                    groups = fractional[row] = {}
                t = groups.get(den)
                if t is None:
                    t = groups[den] = {}
            else:
                t = plain.get(row)
                if t is None:
                    t = plain[row] = {}
            small, big = (ct, at) if len(ct) <= len(at) else (at, ct)
            for (e1, f1, g1), c1 in small.items():
                for (e2, f2, g2), c2 in big.items():
                    m = (e1 + e2, f1 + f2, g1 + g2)
                    x = t.get(m, 0) + c1 * c2
                    if x:
                        t[m] = x
                    else:
                        del t[m]


def _sums(plain: dict, fractional: dict) -> dict[str, RatioElem]:
    """The vector that _products accumulated: each nonempty dict wrapped
    once, without reduction, and the groups of a row that carry a
    denominator (rare) added to it with RatioElem addition, which is exact,
    so a row whose groups cancel, a plain part against a fractional one
    included, is dropped."""
    out = {row: RatioElem(RingElem(t)) for row, t in plain.items() if t}
    for row, groups in fractional.items():
        for den, t in groups.items():
            if t:
                _accumulate(out, row, RatioElem(RingElem(t), den))
    return out


def diagram_to_standard(D: Diagram) -> dict[str, RatioElem]:
    """Tensor-product expansion of a diagram over standard strings: T's
    column, with the RatioElem entries that every operator holds."""
    placements = []
    for block in D.blocks():
        placements.append((_block_sites(block), block_vector(block)))
    chars_template = ["?"] * D.N
    out: dict[str, RatioElem] = {}

    def rec(idx: int, coeff: RingElem, chars):
        if idx == len(placements):
            # disjoint blocks with distinct local strings: each path writes
            # its own string, with a product of nonzero coefficients
            out["".join(chars)] = RatioElem(coeff)
            return
        sites, options = placements[idx]
        for local, c in options:
            for site, ch in zip(sites, local):
                chars[site - 1] = ch
            rec(idx + 1, coeff * c, chars)

    rec(0, ONE, chars_template)
    return out


def read_only(op: dict) -> MappingProxyType:
    """A read-only view of a map of columns and of each column, for the
    matrices that a cache hands to every caller."""
    return MappingProxyType({s: MappingProxyType(col) for s, col in op.items()})


@lru_cache(maxsize=None)
def transition_matrix(tag: str, N: int, M: int | None = None):
    """T: columns of KL vectors in the standard basis, keyed by string; an
    operator like every other (algebra.Op), read-only since it is shared."""
    check_tag(tag, M)
    return read_only({
        s: diagram_to_standard(build_diagram(tag, s, M))
        for s in enumerate_strings(N)
    })


def standard_to_kl(vec: dict[str, RatioElem], tag: str, N: int, M: int | None = None):
    """Invert the unitriangular expansion by ascending back-substitution.

    vec is accumulated into _products' term dicts.  Corrections propagate
    only to larger strings, so one ascending pass over the strings settles
    everything: row s, read once when it is reached with _sums' exact
    addition, is the KL coefficient c at s, and c T[s] is then subtracted
    in place.  T's diagonal is taken to be 1, as the klbasis check
    (validate_kl_conditions) verifies, so what the subtraction leaves in
    row s is dropped.  Raises AssertionError if any row is nonzero once
    every string has been read, as for a T that is not triangular.
    """
    T = transition_matrix(tag, N, M)
    plain: dict[str, dict] = {}
    fractional: dict[str, dict] = {}
    _products(R_ONE, vec, 1, plain, fractional)
    out: dict[str, RatioElem] = {}
    for s in enumerate_strings(N):
        c = _sums({s: plain.pop(s, None)}, {s: fractional.pop(s, {})}).get(s)
        if c is None:
            continue
        out[s] = c
        _products(T, {s: c}, -1, plain, fractional)
        plain.pop(s, None)
        fractional.pop(s, None)
    if _sums(plain, fractional):
        raise AssertionError("back-substitution left residual entries")
    return out


_GAMMA_CHECKS = {
    "A": lambda e, f, g: e < 0 and f == 0 and g == 0,
    "BI": lambda e, f, g: e < 0 and f == 0 and g == 0,
    "BII": lambda e, f, g: g == 0 and (e < 0 or (e == 0 and f < 0)),
    "BIII": lambda e, f, g: g == 0 and (f < 0 or (f == 0 and e < 0)),
}


def validate_kl_conditions(tag: str, N: int, M: int | None = None) -> dict[str, bool]:
    """Check triangularity and the Gamma_- membership of every correction:
    a correction with a denominator atom is not in Gamma_-."""
    T = transition_matrix(tag, N, M)
    member = _GAMMA_CHECKS[tag]
    report = {}
    for s, col in T.items():
        key = string_sort_key(s)
        report[s] = col.get(s) == R_ONE and all(
            string_sort_key(s2) > key and not t.den and all(member(*m) for m in t.num.terms)
            for s2, t in col.items() if s2 != s
        )
    return report
