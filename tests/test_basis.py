import random

import pytest

from tbtl import basis
from tbtl.basis import (
    build_diagram,
    block_vector,
    diagram_to_standard,
    enumerate_strings,
    flip,
    reflect,
    standard_to_kl,
    string_sort_key,
    transition_matrix,
    validate_kl_conditions,
)
from tbtl.cli import main
from tbtl.ring import ONE, RatioElem, RingElem, R_ONE, ZERO, angle, qdiff, qint

mono = RingElem.mono

ALL_FAMILIES = [("A", None), ("BI", 1), ("BI", 2), ("BI", 3), ("BII", None), ("BIII", None)]


class TestStrings:
    def test_order_n1(self):
        assert enumerate_strings(1) == ["-", "+"]

    def test_order_n2(self):
        assert enumerate_strings(2) == ["--", "-+", "+-", "++"]

    def test_count(self):
        for N in range(1, 11):
            assert len(enumerate_strings(N)) == 2**N

    def test_sorted_by_key(self):
        for N in (3, 5):
            ss = enumerate_strings(N)
            assert ss == sorted(ss, key=string_sort_key)

    def test_flip_and_reflect(self):
        assert flip("+--", {1: "-", 3: "+"}) == "--+"
        assert reflect("+--") == "++-"
        assert reflect(reflect("+-+-")) == "+-+-"


class TestDiagramRules:
    def test_example_type_A(self):
        D = build_diagram("A", "+--+--")
        assert D.arcs == ((3, 4),)
        assert D.ups == (1,)
        assert D.downs == (2, 5, 6)

    def test_example_BI_M1(self):
        D = build_diagram("BI", "+--+--", 1)
        assert D.star == 6
        assert D.dashed == ((2, 5),)
        assert D.unpaired_down is None

    def test_example_BII(self):
        D = build_diagram("BII", "+--+--")
        assert dict(D.marks) == {6: "o", 5: "e", 2: "o"}

    def test_example_BIII(self):
        D = build_diagram("BIII", "+--+--")
        assert dict(D.circles) == {6: 1, 5: 2, 2: 3}

    def test_example_BI_M2_nine_sites(self):
        D = build_diagram("BI", "+--+---+-", 2)
        assert D.arcs == ((3, 4), (7, 8))
        assert dict(D.labels) == {9: 2}
        assert D.star == 6
        assert D.dashed == ((2, 5),)
        assert D.unpaired_down is None

    def test_all_plus(self):
        D = build_diagram("BIII", "+++")
        assert D.circles == () and D.arcs == () and D.ups == (1, 2, 3)

    def test_rule_fixpoint(self):
        # after pairing, no unpaired down sits left of an unpaired up,
        # and arcs never cross
        for tag, M in ALL_FAMILIES:
            for N in range(1, 9):
                if tag == "BI" and M > 3:
                    continue
                for s in enumerate_strings(N):
                    D = build_diagram(tag, s, M)
                    unpaired_downs = [
                        i for i in range(1, N + 1)
                        if D.site_kind(i)[0] in ("down", "star", "label", "mark", "circle", "dash_l", "dash_r")
                    ]
                    if D.ups and unpaired_downs:
                        assert max(D.ups) < min(unpaired_downs), (tag, s)
                    for (a, b) in D.arcs:
                        for (c, d) in D.arcs:
                            assert not (a < c < b < d), (s, (a, b), (c, d))

    def test_bi_single_unpaired(self):
        for N in range(1, 9):
            for M in (1, 2, 3):
                for s in enumerate_strings(N):
                    D = build_diagram("BI", s, M)
                    count = 1 if D.unpaired_down is not None else 0
                    assert count <= 1

    def test_json_schema(self):
        d = build_diagram("BI", "+--+--", 2).to_json()
        assert d["type"] == "BI" and d["M"] == 2
        assert d["arcs"] == [[3, 4]]
        assert d["string"] == "+--+--"


def unmatched_downs(s):
    """The number of '-' that no later '+' closes into an arc."""
    open_ = 0
    for c in s:
        if c == "-":
            open_ += 1
        elif open_:
            open_ -= 1
    return open_


FIELDS = ("arcs", "dashed", "labels", "marks", "circles", "ups", "downs")


class TestAccessors:
    """The decoration accessors against closed forms read off the string."""

    def test_first_label_and_label_sites(self):
        for N in range(1, 9):
            for s in enumerate_strings(N):
                d = unmatched_downs(s)
                for M in range(1, 5):
                    D = build_diagram("BI", s, M)
                    assert D.first_label() == max(M + 1 - d, 1), (s, M)
                    expected = {p: i for i, p in D.labels}
                    if D.star is not None:
                        expected[1] = D.star
                    assert D.label_sites() == expected, (s, M)

    def test_leftmost_mark(self):
        for N in range(1, 9):
            for s in enumerate_strings(N):
                d = unmatched_downs(s)
                expected = None if d == 0 else ("o" if d % 2 else "e")
                assert build_diagram("BII", s).leftmost_mark() == expected, s

    def test_fields_sorted_by_site(self):
        for N in range(1, 9):
            for s in enumerate_strings(N):
                diagrams = [build_diagram(t, s) for t in ("A", "BII", "BIII")]
                diagrams += [build_diagram("BI", s, M) for M in range(1, 5)]
                for D in diagrams:
                    for name in FIELDS:
                        field = getattr(D, name)
                        assert list(field) == sorted(field), (D.tag, D.M, s, name)


class TestBlocks:
    def test_block_table(self):
        assert block_vector(("up", 1)) == [("+", ONE)]
        assert block_vector(("arc", 1, 2)) == [("-+", ONE), ("+-", mono(-1, -1))]
        assert block_vector(("dash", 1, 2)) == [("--", ONE), ("++", mono(-1, -1))]
        assert block_vector(("star", 1)) == [("-", ONE), ("+", mono(-1, -1))]
        assert block_vector(("label", 1, 3)) == [("-", ONE), ("+", mono(-1, -3))]
        assert block_vector(("mark", 1, "o")) == [("-", ONE), ("+", mono(-1, 0, -1))]
        assert block_vector(("mark", 1, "e")) == [("-", ONE), ("+", mono(1, -1, 1))]
        assert block_vector(("circle", 1, 1)) == [("-", ONE), ("+", mono(-1, 0, 0) * mono(1, 0, -1))]
        assert block_vector(("circle", 1, 3)) == [("-", ONE), ("+", mono(-1, 2, -1))]
        assert block_vector(("down", 1)) == [("-", ONE)]

    def test_expansion_example(self):
        exp = diagram_to_standard(build_diagram("A", "+--+--"))
        assert exp == {"+--+--": R_ONE, "+-+---": RatioElem(mono(-1, -1))}

    def test_leading_coefficient(self):
        for tag, M in ALL_FAMILIES:
            for N in range(1, 7):
                for s in enumerate_strings(N):
                    exp = diagram_to_standard(build_diagram(tag, s, M))
                    assert exp[s] == R_ONE, (tag, s)


class TestTransition:
    def test_identity_n1_type_A(self):
        T = transition_matrix("A", 1)
        assert T == {"-": {"-": R_ONE}, "+": {"+": R_ONE}}

    def test_n2_type_A(self):
        T = transition_matrix("A", 2)
        assert T["-+"] == {"-+": R_ONE, "+-": RatioElem(mono(-1, -1))}
        assert T["--"] == {"--": R_ONE}

    def test_unitriangular(self):
        for tag, M in ALL_FAMILIES:
            for N in range(1, 7):
                if tag == "BI" and M > 3:
                    continue
                assert all(validate_kl_conditions(tag, N, M).values()), (tag, N, M)

    def test_corrupted_column_fails(self):
        # a coefficient +q is outside every allowed coefficient class
        from tbtl.basis import _GAMMA_CHECKS

        for tag in ("A", "BI", "BII", "BIII"):
            assert not _GAMMA_CHECKS[tag](1, 0, 0)

    def test_round_trip(self):
        import random

        rng = random.Random(9)
        for tag, M in [("A", None), ("BI", 2), ("BII", None), ("BIII", None)]:
            N = 4
            T = transition_matrix(tag, N, M)
            # random KL combination -> standard -> back
            combo = {s: RatioElem(mono(rng.randint(-3, 3), rng.randint(-1, 1)))
                     for s in enumerate_strings(N) if rng.random() < 0.5}
            vec: dict = {}
            for s, c in combo.items():
                for s2, t in T[s].items():
                    cur = vec.get(s2)
                    add = c * t
                    vec[s2] = add if cur is None else cur + add
            back = standard_to_kl(vec, tag, N, M)
            for s in enumerate_strings(N):
                want = combo.get(s)
                got = back.get(s)
                if not want:
                    assert not got
                else:
                    assert got == want

    def test_kl_column_to_unit(self):
        T = transition_matrix("BIII", 3)
        back = standard_to_kl(T["-+-"], "BIII", 3)
        assert back == {"-+-": R_ONE}


def classify_from_fields(D):
    """Site -> role from the Diagram fields alone: the two ends of an arc or
    a dashed arc name each other; labels, marks and circles carry their
    value.  Fails if a site gets two roles."""
    roles = []
    for name, pairs in (("arc", D.arcs), ("dash", D.dashed)):
        for a, b in pairs:
            roles += [(a, (f"{name}_l", b)), (b, (f"{name}_r", a))]
    roles += [(i, ("up",)) for i in D.ups]
    roles += [(i, ("down",)) for i in D.downs]
    if D.unpaired_down is not None:
        roles.append((D.unpaired_down, ("down",)))
    if D.star is not None:
        roles.append((D.star, ("star",)))
    for name, decorated in (("label", D.labels), ("mark", D.marks), ("circle", D.circles)):
        roles += [(i, (name, value)) for i, value in decorated]
    kinds = dict(roles)
    assert len(kinds) == len(roles), D
    return kinds


@pytest.mark.parametrize(
    "tag, M", [("A", None), ("BII", None), ("BIII", None)] + [("BI", m) for m in range(1, 5)]
)
def test_site_kind_exhaustive(tag, M):
    for N in range(1, 9):
        for s in enumerate_strings(N):
            D = build_diagram(tag, s, M)
            kinds = classify_from_fields(D)
            assert sorted(kinds) == list(range(1, N + 1)), s
            for i in range(1, N + 1):
                assert D.site_kind(i) == kinds[i], (s, i)
            for outside in (0, N + 1):
                with pytest.raises(ValueError):
                    D.site_kind(outside)


def test_build_diagram_cache_is_bounded():
    # the verbs that read each diagram once build it without the cache; a
    # verify run reuses the diagrams it built
    for argv in (
        ["table", "--nmax", "9"],
        ["enumerate", "--type", "BI", "--m", "2", "--n", "5"],
        ["conjecture", "--check", "all", "--nmax", "5"],
    ):
        build_diagram.cache_clear()
        assert main(argv) == 0
        assert build_diagram.cache_info().currsize == 0, argv
    build_diagram.cache_clear()
    assert main(["verify", "--check", "klactions", "--type", "BI", "--m", "2", "--n", "4"]) == 0
    assert build_diagram.cache_info().hits > 0
    # the cache keeps at most 4,096 diagrams, one family's every string at N=12
    for s in enumerate_strings(13):
        build_diagram("A", s)
    info = build_diagram.cache_info()
    assert info.maxsize == 4096 and info.currsize == 4096
    build_diagram.cache_clear()


# -- standard_to_kl against the back-substitution on RatioElem values ----------


def reference_standard_to_kl(vec, tag, N, M=None):
    """Ascending back-substitution with one RatioElem product, negation and
    addition per off-diagonal entry of T, each added into its row at once."""
    T = basis.transition_matrix(tag, N, M)
    work = dict(vec)
    out = {}
    for s in enumerate_strings(N):
        c = work.pop(s, None)
        if not c:
            continue
        out[s] = c
        for s2, t in T[s].items():
            if s2 != s:
                cur = work.get(s2)
                nxt = -(c * t) if cur is None else cur - c * t
                if nxt:
                    work[s2] = nxt
                else:
                    del work[s2]
    if work:
        raise AssertionError("back-substitution left residual entries")
    return out


# atoms shared by some entries and not by others; the two [3]s are equal
# atoms built apart
_ATOMS = (qint(2), qint(3), angle(1), qdiff(), RingElem(qint(3).terms))


def _random_entry(rng, atoms):
    terms = {
        (rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(-1, 1)): rng.choice((-2, -1, 1, 2))
        for _ in range(rng.randint(1, 3))
    }
    return RatioElem(RingElem(terms), rng.sample(atoms, rng.randint(0, 2)) if atoms else ())


def _expand(combo, T):
    """sum_s combo[s] T[s], with RatioElem arithmetic."""
    vec = {}
    for s, c in combo.items():
        for s2, t in T[s].items():
            total = vec.get(s2, RatioElem(ZERO)) + c * t
            if total:
                vec[s2] = total
            else:
                vec.pop(s2, None)
    return vec


@pytest.mark.parametrize("tag,M", ALL_FAMILIES)
def test_standard_to_kl_matches_ratio_back_substitution(tag, M):
    rng = random.Random(f"{tag}{M}")
    for N in range(1, 7):
        T = transition_matrix(tag, N, M)
        strings = enumerate_strings(N)
        for atoms in ((), _ATOMS):
            # an arbitrary vector, and the expansion of a KL combination,
            # whose corrections cancel plain parts against fractional ones
            arbitrary = {s: _random_entry(rng, atoms) for s in strings if rng.random() < 0.6}
            combo = {s: _random_entry(rng, atoms) for s in strings if rng.random() < 0.4}
            for vec in (arbitrary, _expand(combo, T)):
                got = standard_to_kl(vec, tag, N, M)
                want = reference_standard_to_kl(vec, tag, N, M)
                assert got.keys() == want.keys(), (tag, M, N)
                assert all(got[s] == want[s] and got[s] for s in got), (tag, M, N)
            assert standard_to_kl(_expand(combo, T), tag, N, M) == combo


@pytest.mark.parametrize("entry", [R_ONE, RatioElem(mono(1, 1), (qint(2), qdiff()))])
def test_standard_to_kl_refuses_a_T_that_is_not_triangular(monkeypatch, entry):
    # column "+-" reaches down to the row "-+", read before it
    T = {s: dict(col) for s, col in transition_matrix("BIII", 2).items()}
    T["+-"]["-+"] = RatioElem(mono(1, 1))
    monkeypatch.setattr(basis, "transition_matrix", lambda *_: T)
    for back_substitute in (standard_to_kl, reference_standard_to_kl):
        with pytest.raises(AssertionError, match="residual"):
            back_substitute({"+-": entry}, "BIII", 2)
