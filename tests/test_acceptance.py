"""Acceptance suite: one test per acceptance criterion.  Every bound
(system sizes, seeds, draw counts, time limits) is pinned here; nothing is
deferred to later calibration.

Each criterion runs the command-line rows that check its claim, in process,
through ``rows``: the run must exit 0 and print at least one line, each a
``PASS`` or ``AGREE`` row.  Under ``pytest -s`` the rows are printed.  Two
claims have no row and stay direct calls: criterion 9's exhaustive grids
(``verify_qidentity``; ``identities`` samples) and criterion 11's a_0 = 0
instance (``numeric_ground_state_check``; the pf row fixes a_0 = 1/10).
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

import pytest

from tbtl import cli, combinatorics
from tbtl.combinatorics import TABLE_1
from tbtl.ground_state import numeric_ground_state_check
from tbtl.identities import LEMMA_IDS, verify_qidentity

from test_combinatorics import random_observable

FAMILIES = [("A", None), ("BI", 1), ("BI", 2), ("BII", None), ("BIII", None)]
ALL_BASES = FAMILIES + [("standard", None)]


def family(tag, M):
    return ["--type", tag] + ([] if M is None else ["--m", M])


def tbtl(*argv):
    """Run the command line in process; return its exit code and the lines
    it printed."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue().splitlines()


def rows(*argv):
    """Run check rows and print their lines; fail unless the run exits 0
    and prints at least one line, each a PASS or AGREE row."""
    code, lines = tbtl(*argv)
    for line in lines:
        print(line)
    bad = [line for line in lines if not line.startswith(("PASS  ", "AGREE  "))]
    assert code == 0 and lines and not bad, (
        f"tbtl {' '.join(map(str, argv))}: exit {code}, {bad or 'no output'}"
    )


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_1_table():
    """All 63 tabulated sums at q = Q = 1, under one minute."""
    t0 = time.perf_counter()
    code, lines = tbtl("table", "--nmax", 9, "--format", "json")
    elapsed = time.perf_counter() - t0
    table = list(json.loads("\n".join(lines)).values())
    cells = sum(len(sums) for sums in table)
    ok = code == 0 and table == list(TABLE_1.values()) and cells == 63 and elapsed < 60
    report(f"criterion 1: {cells} table cells reproduced in {elapsed:.1f}s", ok)


def test_criterion_2_relations():
    """Defining relations and both quotient identities, N = 2..6, under
    two minutes."""
    t0 = time.perf_counter()
    for N in range(2, 7):
        rows("verify", "--check", "relations", "--n", N)
    elapsed = time.perf_counter() - t0
    report(f"criterion 2: relations and quotients N<=6 in {elapsed:.1f}s", elapsed < 120)


def test_criterion_3_commutant():
    """[e_g, X] = 0 for bulk and right boundary, N <= 6; the two X
    constructions agree (generator_matrix(N, "X") raises, and the row
    fails, if they do not)."""
    for N in range(1, 7):
        rows("verify", "--check", "commutant", "--n", N)


def test_criterion_4_oracle():
    """Diagrammatic action == conjugated matrix action, exhaustively,
    every family, every generator, N <= 5."""
    for (tag, M), N in product(FAMILIES, range(1, 6)):
        rows("verify", "--check", "klactions", *family(tag, M), "--n", N)


def test_criterion_5_ground_state():
    """X Psi = lambda Psi (N <= 6); e_g Psi = 0 with e_0 at the integrable
    point, so the affine Hamiltonian combination vanishes (N = 2..6);
    closed form equals the change-of-basis image (scalar 1)."""
    for tag, M in ALL_BASES:
        for N in range(1, 7):
            rows("verify", "--check", "groundstate", *family(tag, M), "--n", N)
        for N in range(2, 7):
            rows("verify", "--check", "annihilation", *family(tag, M), "--n", N)


def test_criterion_6_multiplicities():
    """Binomial multiplicities at two generic points per seed, seeds 7 and
    2026, for N = 2..7 (BII and BIII: also the triangular spectrum), and the
    BI index histogram for N <= 8, M <= 3."""
    cases = [(tag, None, N) for tag in ("A", "BII", "BIII") for N in range(2, 8)]
    cases += [("BI", M, N) for M in (1, 2, 3) for N in range(1, 9)]
    for (tag, M, N), seed in product(cases, (7, 2026)):
        rows("verify", "--check", "eigen", *family(tag, M), "--n", N, "--seed", seed)


def test_criterion_7_structure():
    """Positivity classes, bar invariance and leading terms, N <= 6 and
    M <= 3 for BI."""
    for (tag, M), N in product(FAMILIES + [("BI", 3)], range(1, 7)):
        rows("verify", "--check", "groundstate", *family(tag, M), "--n", N)


def test_criterion_8_correlations():
    """Closed form equals brute force for 100 random observables per
    N <= 6, plus the single-site value."""
    rng = random.Random(123)
    agree = 0
    for N in range(1, 7):
        for _ in range(100):
            alphas, plus, minus = (",".join(map(str, part)) for part in random_observable(N, rng))
            code, lines = tbtl(
                "correlate", "--n", N, "--alpha", alphas, "--plus", plus, "--minus", minus
            )
            agree += code == 0 and lines[-1] == "closed == brute force: True"
    code, lines = tbtl("correlate", "--n", 6, "--alpha", 6, "--at", "q=7,Q=3")
    ok = agree == 600 and code == 0 and lines[0] == "value = 9/10"
    report(f"criterion 8: {agree} random correlation agreements", ok)


def test_criterion_9_appendix():
    """All twelve lemmas: 200 random draws each, plus exhaustive small
    grids (direct calls until a row decides a lemma on its whole box); the
    tridiagonal determinant vanishes symbolically for N <= 4."""
    for lemma in LEMMA_IDS:
        if lemma != "appA":
            rows("identities", "--lemma", lemma, "--draws", 200, "--seed", 40)
    for N in range(1, 5):
        rows("identities", "--lemma", "appA", "--n", N)
    ok = True
    for lemma in LEMMA_IDS:
        if lemma == "appA":
            continue
        lo = 1 if lemma in ("app8", "app15", "app17") else 0
        for I in (1, 2):
            for ms in product((1, 2, 3), repeat=I):
                if lemma == "app2":
                    for x in (1, 2, 3):
                        ok = ok and verify_qidentity(lemma, {"ms": list(ms), "x": x})
                    continue
                if lemma == "app13":
                    for x in (1, 2):
                        for z in (0, 1):
                            ok = ok and verify_qidentity(
                                lemma, {"ms": list(ms), "x": x, "z": z}
                            )
                    continue
                ns_len = I + 1 if lemma in ("app0", "app1") else I
                for ns in product(range(lo, 3), repeat=ns_len):
                    ok = ok and verify_qidentity(lemma, {"ms": list(ms), "ns": list(ns)})
    report("criterion 9: eleven appendix identities on exhaustive small grids", ok)


def test_criterion_10_conjectures():
    """Conjecture scorecards at the tabulated scales; agreement is
    reported, not assumed."""
    rows("conjecture", "--nmax", 12)


def test_criterion_11_numeric():
    """Exact ground-state certificate at q=11/10, Q=13/10, a_N=1,
    a_0 in {0, 1/10}, 2 <= N <= 8: the lowest eigenvalue of H is 0 and
    simple, with entrywise positivity of the BI and BIII components.  The
    pf row fixes a_0 = 1/10; a_0 = 0 is a direct call."""
    ok = True
    for N in range(2, 9):
        rows("verify", "--check", "pf", "--n", N)
        certified, pos = numeric_ground_state_check(
            N, Fraction(11, 10), Fraction(13, 10), Fraction(1), Fraction(0)
        )
        ok = ok and certified and pos["BI"] and pos["BIII"]
    report("criterion 11: exact spectra at a_0 = 0 flat at a simple zero, positive components", ok)


# -- the row runner itself ----------------------------------------------------


@pytest.mark.parametrize(
    "code, out",
    [(0, "PASS  a\nFAIL  b\n"), (0, "AGREE  a\nDISAGREE  b\n"), (1, "PASS  a\n"), (0, "")],
    ids=["fail-line", "disagree-line", "nonzero-exit", "empty-output"],
)
def test_rows_fail_unless_every_row_passes(monkeypatch, code, out):
    def fake_main(argv):
        print(out, end="")
        return code

    monkeypatch.setattr(cli, "main", fake_main)
    with pytest.raises(AssertionError):
        rows("verify")


def test_rows_pass_on_passing_rows(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: print("PASS  a\nAGREE  b") or 0)
    rows("verify")


def test_rows_fail_on_a_usage_error():
    # eigen has no row for the standard basis: exit 64, nothing printed
    assert tbtl("verify", "--check", "eigen", "--type", "standard", "--n", 3) == (64, [])
    with pytest.raises(AssertionError):
        rows("verify", "--check", "eigen", "--type", "standard", "--n", 3)


def test_criterion_10_fails_on_a_disagreeing_checker(monkeypatch, capsys):
    monkeypatch.setattr(combinatorics, "check_weight_histogram", lambda N: False)
    with pytest.raises(AssertionError):
        test_criterion_10_conjectures()
    assert "DISAGREE  weight histogram of symmetric binary matrices, N <= 8" in (
        capsys.readouterr().out.splitlines()
    )
