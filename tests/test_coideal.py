from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tbtl import coideal

from tbtl.algebra import generator_matrix
from tbtl.basis import build_diagram, enumerate_strings, transition_matrix
from tbtl.coideal import (
    check_bi_multiplicity_histogram,
    check_multiplicity_theorem,
    check_triangular_spectrum,
    classify_bi,
    eigen_multiplicities,
    x_matrix_kl,
)
from tbtl.kl_action import apply_X_kl, crosscheck_vs_standard
from tbtl.ring import (
    RatioElem, RingElem, ZeroDenominator, angle, qdiff, qQ_bracket, qfact, qint, qshift, R_ONE,
)

mono = RingElem.mono


def r(c):
    return RatioElem.from_ring(c)


class TestWorkedExamples:
    def test_type_A(self):
        # three ups, three downs, weight zero: coefficients [i] and q[i]
        b = "+++---"
        D = build_diagram("A", b)
        out = apply_X_kl("A", D)
        assert out["++----"] == r(qint(3))       # last up flipped: E_(3)
        assert out["-++---"] == r(qint(1))        # E_(1)
        assert out["+-+---"] == r(qint(2))
        assert out["+++--+"] == r(mono(1, 1) * qint(1))  # F_(1): rightmost down
        assert out["+++-+-"] == r(mono(1, 1) * qint(2))
        assert out["++++--"] == r(mono(1, 1) * qint(3))
        assert out[b] == qQ_bracket(0)

    def test_BI_with_unpaired(self):
        # example with one up and an unpaired down (M = 2)
        b = "+-" + "-+--+--"[:0] + "-+--"[:0]
        b = "+--+--"  # up, unpaired down would need the right shape; build one
        D = build_diagram("BI", "+-", 2)
        assert dict(D.labels) == {2: 2}
        out = apply_X_kl("BI", D)
        # no unpaired down: r = 2: diagonal [n_up + r - 1] = [2]
        assert out["--"] == r(qint(1))
        assert out["+-"] == r(qint(2))

    def test_BI_second_example(self):
        # M = 3, labels 2 and 3 present, two ups: X = X1 + [2]X2 + [3]D
        b = "+-+--" + "-"
        D = build_diagram("BI", "++--", 3)
        assert dict(D.labels) == {3: 2, 4: 3}
        out = apply_X_kl("BI", D)
        assert out["-+--"] == r(qint(1))
        assert out["+---"] == r(qint(2))
        assert out["++--"] == r(qint(3))  # [n_up + r - 1] = [2 + 2 - 1]

    def test_BI_unpaired_down(self):
        D = build_diagram("BI", "+-", 1)
        assert D.star == 2 and D.unpaired_down is None
        # a genuine unpaired down needs more downs than M
        D = build_diagram("BI", "+--", 1)
        assert D.unpaired_down == 2 and D.star == 3
        out = apply_X_kl("BI", D)
        assert out["---"] == r(qint(1))   # dashed-arc move
        assert out["++-"] == r(qint(2))   # unpaired down flipped
        assert "+--" not in out

    def test_BII(self):
        # the worked example: two ups, nested arcs, marks e and o
        b = "++---++-"
        D = build_diagram("BII", b)
        assert D.arcs == ((4, 7), (5, 6))
        assert dict(D.marks) == {3: "e", 8: "o"}
        out = apply_X_kl("BII", D)
        assert out["-+---++-"] == r(qint(1))
        assert out["+----++-"] == r(qint(2))
        assert out[b] == qQ_bracket(2)

    def test_BII_o_leftmost(self):
        D = build_diagram("BII", "+-")
        out = apply_X_kl("BII", D)
        assert out["+-"] == qQ_bracket(-2)  # [Q; -n_up - 1]

    def test_BIII(self):
        b = "+-++--" + "-++-"
        D = build_diagram("BIII", "+-+-")
        out = apply_X_kl("BIII", D)
        assert out[("+-+-")] == qQ_bracket(0)


class TestXmatrix:
    @pytest.mark.parametrize(
        "tag,M", [("A", None), ("BI", 1), ("BI", 2), ("BII", None), ("BIII", None)]
    )
    def test_oracle(self, tag, M):
        for N in (1, 2, 3, 4):
            assert crosscheck_vs_standard(tag, N, "X", M)[0], (tag, N)

    def test_triangular(self):
        for tag in ("BII", "BIII"):
            for N in (2, 4, 6):
                assert check_triangular_spectrum(tag, N)


class TestClassification:
    def test_all_plus(self):
        hist = classify_bi(3, 2)
        # all-plus: no labels, r = M + 1, E = N + M
        assert hist[3 + 2] == 1

    def test_unpaired_value(self):
        # diagram with unpaired down and k ups has index -(k+1)
        D = build_diagram("BI", "+--", 1)
        assert D.unpaired_down is not None
        hist = classify_bi(3, 1)
        assert hist.get(-2, 0) >= 1

    def test_totals(self):
        for N in (3, 5):
            for M in (1, 2):
                assert sum(classify_bi(N, M).values()) == 2**N

    def test_binomial_histogram(self):
        for N in range(1, 9):
            for M in (1, 2, 3):
                assert check_bi_multiplicity_histogram(N, M), (N, M)


class TestMultiplicities:
    def test_small(self):
        mult, _ = eigen_multiplicities("A", 3, seed=3)
        assert mult == {0: 1, 1: 3, 2: 3, 3: 1}

    def test_n1(self):
        for tag, M in [("A", None), ("BI", 2), ("BII", None), ("BIII", None)]:
            mult, _ = eigen_multiplicities(tag, 1, M, seed=5)
            assert mult == {0: 1, 1: 1}

    @pytest.mark.parametrize(
        "tag,M", [("A", None), ("BI", 1), ("BI", 3), ("BII", None), ("BIII", None)]
    )
    def test_theorem_two_points(self, tag, M):
        for N in (2, 4):
            assert check_multiplicity_theorem(tag, N, M, seeds=(7, 2026))

    def test_bi_matches_histogram(self):
        N, M = 3, 2
        mult, _ = eigen_multiplicities("BI", N, M, seed=11)
        hist = classify_bi(N, M)
        for i in range(N + 1):
            assert hist.get(N + M - 2 * i, 0) == mult[i] or comb(N, i) == mult[i]

    @pytest.mark.parametrize("error", [TypeError, ZeroDenominator])
    def test_only_degenerate_points_resample(self, monkeypatch, error):
        class Candidate:
            def evaluate(self, p):
                raise error("candidate cannot be evaluated")

        monkeypatch.setattr(
            coideal, "candidate_eigenvalues", lambda tag, N, M: [(0, Candidate())]
        )
        expected = TypeError if error is TypeError else RuntimeError
        with pytest.raises(expected):
            eigen_multiplicities("A", 2, seed=1)


# -- the rank, against independent eliminations ------------------------------


def dense_rank(rows, ncols):
    """Gauss elimination over Fraction on the dense matrix."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    for j in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][j] / m[rank][j]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


_entries = st.builds(
    Fraction,
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(1, 10**12),
)


@st.composite
def sparse_rows(draw):
    """Sparse rational rows, made rank-deficient by integer combinations of
    a few base rows, duplicates and empty rows."""
    ncols = draw(st.integers(1, 8))
    base = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), _entries, max_size=ncols),
        min_size=1, max_size=6,
    ))
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        combo: dict[int, Fraction] = {}
        for row in draw(st.lists(st.sampled_from(base), min_size=1, max_size=3)):
            c = draw(st.integers(-5, 5))
            for k, v in row.items():
                combo[k] = combo.get(k, Fraction(0)) + c * v
        rows.append({k: v for k, v in combo.items() if v})
    rows += draw(st.lists(st.sampled_from(base), max_size=2))
    rows += [{}] * draw(st.integers(0, 2))
    return ncols, draw(st.permutations(rows))


def rank_of(rows):
    """The rank as eigen_multiplicities computes it: each row scaled to
    integers by _integer_row, then _integer_rank."""
    ints = [coideal._integer_row(row)[1] for row in rows]
    before = [dict(row) for row in ints]
    rank = coideal._integer_rank(ints)
    assert ints == before  # the integer rows may be shared, so stay unmodified
    return rank


class TestRank:
    @settings(max_examples=150, deadline=None)
    @given(sparse_rows(), st.randoms(use_true_random=False))
    def test_matches_dense_elimination(self, drawn, rnd):
        ncols, rows = drawn
        before = [dict(row) for row in rows]
        rank = rank_of(rows)
        assert rows == before  # the input is not modified
        assert rank == dense_rank(rows, ncols)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert rank_of(shuffled) == rank

    @settings(max_examples=40, deadline=None)
    @given(sparse_rows())
    def test_matches_sympy(self, drawn):
        sympy = pytest.importorskip("sympy")
        ncols, rows = drawn
        dense = [[sympy.Rational(row.get(j, 0)) for j in range(ncols)] for row in rows]
        assert rank_of(rows) == sympy.Matrix(dense).rank()

    def test_deficient_by_construction(self):
        a = {0: Fraction(3, 10**9), 2: Fraction(-7, 4)}
        b = {1: Fraction(-5, 6), 2: Fraction(1, 3)}
        combo = {0: 2 * a[0], 1: -3 * b[1], 2: 2 * a[2] - 3 * b[2]}
        assert rank_of([a, combo, {}, b, dict(a)]) == 2


@pytest.mark.parametrize(
    "cached",
    [
        lambda: x_matrix_kl("A", 3),
        lambda: generator_matrix(3, "e1"),
        lambda: transition_matrix("A", 3),
    ],
    ids=["x_matrix_kl", "generator_matrix", "transition_matrix"],
)
def test_cached_matrix_is_read_only(cached):
    # every caller gets the same cached object, so no caller may change it
    before = {col: dict(column) for col, column in cached().items()}
    op = cached()
    with pytest.raises(AttributeError):
        op["+-+"].clear()
    with pytest.raises(TypeError):
        op["+-+"]["---"] = R_ONE
    with pytest.raises(TypeError):
        op["+-+"] = {}
    assert cached() == before
    assert cached()["+-+"] == before["+-+"] != {}


@pytest.mark.parametrize(
    "cached",
    [
        lambda: x_matrix_kl("A", 3)["+-+"]["+-+"].num,
        lambda: generator_matrix(3, "e1")["+-+"]["+-+"].num,
        lambda: transition_matrix("A", 3)["+-+"]["+-+"],
        lambda: qint(3),
        lambda: qfact(3),
        lambda: angle(2),
        lambda: qshift(1),
        lambda: qdiff(),
    ],
    ids=[
        "x_matrix_kl", "generator_matrix", "transition_matrix",
        "qint", "qfact", "angle", "qshift", "qdiff",
    ],
)
def test_cached_value_is_read_only(cached):
    # the ring values inside a cached result are shared as well
    before = dict(cached().terms)
    with pytest.raises(TypeError):
        cached().terms[(0, 0, 0)] = 99
    with pytest.raises(AttributeError):
        cached().terms.clear()
    assert cached().terms == before != {}
