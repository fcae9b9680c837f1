import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from tbtl import identities
from tbtl.cli import build_parser, main
from tbtl.identities import (
    LEMMA_IDS,
    LEMMAS,
    _ratio,
    lemma_app0,
    lemma_app2,
    lemma_app13,
    random_params,
    sweep,
    tridiag_v_closed,
    tridiag_v_sequence,
    verify_qidentity,
    verify_tridiagonal_lemma,
)
from tbtl.basis import specialize
from tbtl.ring import RatioElem, RingElem, SpecPoint, ZeroDenominator, angle, qint, qQ_bracket


def bi_eigenvalue_consistency(N: int, M: int) -> bool:
    """x_lambda at Q = q^M equals the one-parameter eigenvalue [M+N-2lam]."""
    xs = specialize({lam: qQ_bracket(N - 2 * lam) for lam in range(N + 1)}, "BI", M)
    return all(x == RatioElem(qint(M + N - 2 * lam)) for lam, x in xs.items())


class TestSpotInstances:
    def test_app2_single(self):
        # one-term case: both sides are [m]/([x][x+m])
        lhs, rhs = lemma_app2([3], 2)
        assert lhs == rhs

    def test_app0_worked(self):
        lhs, rhs = lemma_app0([2, 3], [1, 0, 2])
        assert lhs == rhs
        from tbtl.ring import qint, RatioElem

        assert rhs == RatioElem(qint(5))

    def test_app13_small(self):
        lhs, rhs = lemma_app13([1], 1, 0)
        assert lhs == rhs


class TestSmallGrids:
    @pytest.mark.parametrize("lemma", LEMMAS)
    def test_exhaustive(self, lemma):
        for params in _small_grid(lemma):
            assert verify_qidentity(lemma, params), (lemma, params)


class TestLengthChecks:
    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("lemma", [l for l in LEMMAS if l not in ("app2", "app13")])
    def test_ns_of_the_wrong_length_raises(self, lemma, delta):
        ms = [1, 2]
        need = len(ms) + (1 if lemma in ("app0", "app1") else 0)
        with pytest.raises(ValueError, match=f"^ns needs {need} entries, not {need + delta}$"):
            LEMMAS[lemma](ms, [1] * (need + delta))


SWEPT = [l for l in LEMMA_IDS if l != "appA"]
_CLI = build_parser().parse_args(["identities"])


def _drawn(lemma, draws, seed):
    """The params of every draw of sweep(lemma, draws, seed), in order."""
    rng = random.Random(seed)
    return [random_params(lemma, rng) for _ in range(draws)]


def _recorded(monkeypatch, verdict=lambda lemma, params: True):
    """Replace verify_qidentity by verdict; returns the list of its calls."""
    calls = []

    def record(lemma, params):
        calls.append((lemma, repr(params)))
        return verdict(lemma, params)

    monkeypatch.setattr(identities, "verify_qidentity", record)
    return calls


class TestSweeps:
    @pytest.mark.parametrize("lemma", SWEPT)
    def test_random_draws(self, lemma):
        assert sweep(lemma, draws=60, seed=23)

    @pytest.mark.parametrize("draws, seed", [(60, 23), (_CLI.draws, _CLI.seed)])
    @pytest.mark.parametrize("lemma", SWEPT)
    def test_each_distinct_draw_is_checked_once(self, monkeypatch, lemma, draws, seed):
        calls = _recorded(monkeypatch)
        assert sweep(lemma, draws=draws, seed=seed)
        assert len(calls) == len(set(calls))
        assert set(calls) == {(lemma, repr(p)) for p in _drawn(lemma, draws, seed)}

    @pytest.mark.parametrize("lemma", SWEPT)
    def test_a_repeated_draw_that_fails_still_fails(self, monkeypatch, lemma):
        (bad, n), = Counter(map(repr, _drawn(lemma, 60, 23))).most_common(1)
        assert n >= 2
        calls = _recorded(monkeypatch, lambda lemma, params: repr(params) != bad)
        assert not sweep(lemma, draws=60, seed=23)
        assert calls[-1] == (lemma, bad)


def _direct(e, nums, dens, bracket=qint):
    """q^e [n_1] [n_2] ... / ([d_1] [d_2] ...) built from bracket as written,
    with nothing cancelled."""
    num = RingElem.mono(1, e)
    for n in nums:
        num = num * bracket(n)
    return RatioElem(num, [bracket(d) for d in dens])


def _outcome(build, e, nums, dens):
    """build's value, or the message of the ZeroDenominator it raises."""
    try:
        return build(e, nums, dens)
    except ZeroDenominator as exc:
        return f"ZeroDenominator: {exc}"


def _multisets(size):
    """Every multiset of at most size bracket arguments over -3..8, zeros included."""
    return [m for k in range(size + 1) for m in combinations_with_replacement(range(-3, 9), k)]


class TestRatio:
    def test_matches_the_direct_construction(self):
        # All pairs of the 1,820 multisets of up to four arguments at seven
        # exponents are 23 million cases.  Instead, for each e in -3..3 the i-th
        # multiset of nums meets the (k i + 1)-th multiset of dens, with a k
        # prime to 1,820 that differs per e: every (e, nums) and every (e, dens)
        # is checked, against seven partners each.  The 91 multisets of up to
        # two arguments are also paired all against all, e cycling over -3..3.
        big, small = _multisets(4), _multisets(2)
        cases = [
            (e, nums, big[(k * i + 1) % len(big)])
            for e, k in zip(range(-3, 4), (1, 3, 9, 11, 17, 19, 23))
            for i, nums in enumerate(big)
        ]
        cases += [(i % 7 - 3, *pair) for i, pair in enumerate(product(small, small))]
        for e, nums, dens in cases:
            assert _outcome(_ratio, e, nums, dens) == _outcome(_direct, e, nums, dens), (e, nums, dens)

    def test_a_zero_bracket_in_a_denominator_raises(self):
        assert not _ratio(3, [2, 0], [3]).num
        with pytest.raises(ZeroDenominator):
            _ratio(0, [2], [0, 3])
        # a [0] above must not cancel the [0] below
        with pytest.raises(ZeroDenominator):
            _ratio(1, [0, 11, -2], [0, 7, 9, -3, 10])


@pytest.fixture
def cold_b_caches():
    """Empty the caches of B and of its products before and after a test
    that patches B."""
    caches = (identities._b, identities._b_product)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


class TestMutants:
    """A fault in the appendix terms turns the CLI's sweep to FAIL."""

    def run_all(self, capsys):
        code = main(["identities", "--lemma", "all", "--draws", "20"])
        out = capsys.readouterr().out
        assert code == 1 and any(line.startswith("FAIL  ") for line in out.splitlines()), out

    def test_a_dropped_power_of_b1_fails(self, capsys, monkeypatch):
        # q^e B(n_1) ... / (B(d_1) ...): _ratio without B(1)^(len(dens) - len(nums))
        dropped = lambda e, nums=(), dens=(): _direct(e, nums, dens, identities._b)
        monkeypatch.setattr(identities, "_ratio", dropped)
        self.run_all(capsys)

    def test_a_wrong_b3_fails(self, capsys, monkeypatch, cold_b_caches):
        b = identities._b
        monkeypatch.setattr(identities, "_b", lambda n: angle(3) if n == 3 else b(n))
        self.run_all(capsys)


class TestWholeBox:
    """Every instance random_params can draw holds, and the draws stay in that box."""

    def test_the_box_holds_25845_instances(self):
        assert sum(1 for lemma in SWEPT for _ in _box(lemma)) == 25845

    @pytest.mark.parametrize("lemma", SWEPT)
    def test_draws_stay_in_the_box(self, lemma):
        box = {repr(p) for p in _box(lemma)}
        assert {repr(p) for p in _drawn(lemma, 2000, _CLI.seed)} <= box

    @pytest.mark.parametrize("lemma", SWEPT)
    def test_every_instance_holds(self, lemma):
        for params in _box(lemma):
            assert verify_qidentity(lemma, params), (lemma, params)


class TestTridiagonal:
    def test_determinant_vanishes(self):
        for N in (1, 2, 3):
            assert verify_tridiagonal_lemma(N)

    def test_recursion_matches_closed_form(self):
        for N in (2, 3):
            for lam in range(N + 1):
                v = tridiag_v_sequence(N, lam)
                for n in range(1, N + 2):
                    assert v[n] == tridiag_v_closed(N, lam, n)

    def test_bi_consistency(self):
        for N in (2, 3, 4):
            for M in (1, 2, 3):
                assert bi_eigenvalue_consistency(N, M)


def _grid(lemma, sizes, top, x_top=0, z_top=0):
    """Instances of lemma with I in sizes, the entries of ms in 1..top and of
    ns from the lemma's lower bound to top, x in 1..x_top and z in 0..z_top."""
    lo = 1 if lemma in ("app8", "app15", "app17") else 0
    ns_extra = 1 if lemma in ("app0", "app1") else 0
    for I in sizes:
        for ms in product(range(1, top + 1), repeat=I):
            if lemma == "app2":
                for x in range(1, x_top + 1):
                    yield {"ms": list(ms), "x": x}
            elif lemma == "app13":
                for x, z in product(range(1, x_top + 1), range(z_top + 1)):
                    yield {"ms": list(ms), "x": x, "z": z}
            else:
                for ns in product(range(lo, top + 1), repeat=I + ns_extra):
                    yield {"ms": list(ms), "ns": list(ns)}


def _small_grid(lemma):
    """The parameter grid of TestSmallGrids and TestPinnedValues for one lemma."""
    if lemma == "app2":
        return _grid(lemma, (1, 2, 3), 2, x_top=3)
    if lemma == "app13":
        return _grid(lemma, (1, 2), 2, x_top=2, z_top=1)
    return _grid(lemma, (1, 2), 2)


def _box(lemma):
    """Every instance random_params draws from: I in 1..3, ms entries in 1..3,
    ns entries in lo..3, x in 1..4, z in 0..3."""
    return _grid(lemma, (1, 2, 3), 3, x_top=4, z_top=3)


# sha256 of "<params> <lhs> <rhs>" lines, both sides evaluated at _PIN_POINT over
# _small_grid(lemma).  An edit that changes both sides of a lemma alike still
# passes the equality checks above; it changes these digests.
_PIN_POINT = SpecPoint(Fraction(7, 5), Fraction(3, 2), Fraction(5, 7))
_PINNED = {
    "app0": (126, "3967d3b04d7785caee28ebad776f2ff8e7abbf34a636ada8cdbcfe6c1a9baedf"),
    "app1": (126, "5c39309b6fbfeaa58f3498aa797a059e44cfcc631a7b3ee45de8fb4b20d18f8b"),
    "app2": (42, "ab8369b9d2a3d5c98315b5711e609ce1ae2c0e07f74d7514ddd6f596519a9d9f"),
    "app8": (20, "20e6e0b540a34e89df3e9e1c78f87edb26f9f07ea4daabeca990c9bcfc688039"),
    "app9": (42, "98a45dc7570af39e43a4ca695ac2f68bc304ff26da14de905f52e4be3fdecb4b"),
    "app10": (42, "d9c4d14781eec45ed08c0709dac281826132d2519fb8c2811a62ea7de887e830"),
    "app11": (42, "294770cb4904ac3677c44a760abb430a4b49576bf0671b18c456b4e0fe5ae74d"),
    "app13": (24, "009522cef2e9d356552cd8e537e5b708a8f8dc1427754b46b383cc6a93759b60"),
    "app15": (20, "ac0fa30a2ada266b60d0959d2c5084ebcefdac54e4809bb68d78eb7c38453d69"),
    "app16": (42, "a123051215c8400186e56597342aaa0217e8a1476aa79b7c983f1e37541acd4f"),
    "app17": (20, "489546f49535095c797330cbef02068d7ef39dfb95003709946c4625e22bfef1"),
}
_PINNED_TRIDIAGONAL = "cd1a9567665b90073b7a33b51e9d7835a0027b14ef7917f068d24fa99880c596"


class TestPinnedValues:
    def test_every_lemma_is_pinned(self):
        assert sorted(_PINNED) == sorted(LEMMAS)

    @pytest.mark.parametrize("lemma", sorted(_PINNED))
    def test_both_sides_keep_their_values(self, lemma):
        h, n = hashlib.sha256(), 0
        for params in _small_grid(lemma):
            lhs, rhs = LEMMAS[lemma](**params)
            h.update(f"{params} {lhs.evaluate(_PIN_POINT)} {rhs.evaluate(_PIN_POINT)}\n".encode())
            n += 1
        assert (n, h.hexdigest()) == _PINNED[lemma]

    def test_tridiagonal_values(self):
        h = hashlib.sha256()
        for N in (1, 2, 3):
            for lam in range(N + 1):
                v = tridiag_v_sequence(N, lam)
                for n in range(1, N + 2):
                    closed = tridiag_v_closed(N, lam, n)
                    h.update(
                        f"{N} {lam} {n} {v[n].evaluate(_PIN_POINT)} "
                        f"{closed.evaluate(_PIN_POINT)}\n".encode()
                    )
        assert h.hexdigest() == _PINNED_TRIDIAGONAL
