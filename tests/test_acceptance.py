"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Every bound (system sizes, tolerances, draw counts) is
pinned here; nothing is deferred to later calibration."""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from tbtl.algebra import (
    check_defining_relations,
    check_quotient_alpha,
    commutation_check,
    generator_names,
    identity_mismatches,
    unit_columns,
    x_matrix_coproduct,
    x_matrix_direct,
)
from tbtl.basis import build_diagram, enumerate_strings
from tbtl.coideal import (
    check_bi_multiplicity_histogram,
    check_multiplicity_theorem,
    check_triangular_spectrum,
)
from tbtl.combinatorics import (
    bii_S_N1_closed,
    block_strings,
    check_bii_P_conjecture,
    check_biii_P_conjecture,
    check_biii_component_conjecture,
    check_table1,
    check_typeA_P_conjecture,
    check_typeA_component_conjecture,
    check_weight_histogram,
    correlation_check,
    correlation_closed,
    decompose_sum,
)
from tbtl.ground_state import (
    numeric_ground_state_check,
    oracle_change_of_basis,
    psi_vector,
    structural_checks,
    verify_annihilation,
    verify_x_eigen,
)
from tbtl.identities import LEMMA_IDS, sweep, verify_qidentity, random_params
from tbtl.kl_action import crosscheck_vs_standard
from tbtl.ring import R_ONE, RatioElem, SpecPoint

from test_combinatorics import random_observable

FAMILIES = [("A", None), ("BI", 1), ("BI", 2), ("BII", None), ("BIII", None)]
ALL_BASES = FAMILIES + [("standard", None)]


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_1_table():
    """All 63 tabulated sums at q = Q = 1, under one minute."""
    t0 = time.perf_counter()
    rep = check_table1(9)
    elapsed = time.perf_counter() - t0
    ok = all(v[0] for v in rep.values()) and len(rep) == 63 and elapsed < 60
    report(f"criterion 1: 63 table cells reproduced in {elapsed:.1f}s", ok)


def test_criterion_2_relations():
    """Defining relations and both quotient identities, N = 2..6, under
    two minutes."""
    t0 = time.perf_counter()
    ok = True
    for N in range(2, 7):
        ok = ok and all(check_defining_relations(N).values())
        good = check_quotient_alpha(N)
        ok = ok and good
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(f"criterion 2: relations and quotients N<=6 in {elapsed:.1f}s", ok)


def test_criterion_3_commutant():
    """[e_g, X] = 0 for bulk and right boundary, N <= 6; the two X
    constructions agree."""
    ok = True
    for N in range(1, 7):
        direct, coproduct = [(R_ONE, (x_matrix_direct(N),))], [(R_ONE, (x_matrix_coproduct(N),))]
        ok = ok and not any(identity_mismatches(unit_columns(N), direct, coproduct))
    for N in range(2, 7):
        rep = commutation_check(N)
        ok = ok and all(rep.values())
    report("criterion 3: commutant and X cross-construction N<=6", ok)


def test_criterion_4_oracle():
    """Diagrammatic action == conjugated matrix action, exhaustively,
    every family, every generator, N <= 5."""
    ok = True
    for tag, M in FAMILIES:
        for N in range(1, 6):
            for gen in generator_names(N):
                good, _ = crosscheck_vs_standard(tag, N, gen, M)
                ok = ok and good
    report("criterion 4: diagram rules match the matrix oracle N<=5", ok)


def test_criterion_5_ground_state():
    """X Psi = lambda Psi (N <= 6); e_g Psi = 0 with e_0 at the integrable
    point; the affine Hamiltonian combination vanishes; closed form equals
    the change-of-basis image (scalar 1)."""
    ok = True
    for tag, M in ALL_BASES:
        for N in range(1, 7):
            gs = psi_vector(tag, N, M)
            ok = ok and verify_x_eigen(gs)
        for N in range(2, 7):
            gs = psi_vector(tag, N, M)
            rep = verify_annihilation(gs)
            # every generator image vanishes  ->  H(2B) Psi = 0 for any
            # couplings a_0, a_N since H is affine in them
            ok = ok and all(rep.values())
    for tag, M in FAMILIES:
        for N in range(2, 7):
            ok = ok and oracle_change_of_basis(psi_vector(tag, N, M))
    report("criterion 5: ground state eigen/annihilation/basis-change N<=6", ok)


def test_criterion_6_multiplicities():
    """Binomial multiplicities at two generic points for N <= 7, and the
    combinatorial histogram for N <= 8, M <= 3."""
    ok = True
    for tag, M in [("A", None), ("BI", 1), ("BI", 2)]:
        for N in range(2, 8):
            ok = ok and check_multiplicity_theorem(tag, N, M, seeds=(7, 2026))
    for tag in ("BII", "BIII"):
        # triangular families: diagonal read off symbolically, N <= 6,
        # plus the generic-point rank check at N = 7
        for N in range(2, 7):
            ok = ok and check_triangular_spectrum(tag, N)
        ok = ok and check_multiplicity_theorem(tag, 7, None, seeds=(7, 2026))
    for N in range(1, 9):
        for M in (1, 2, 3):
            ok = ok and check_bi_multiplicity_histogram(N, M)
    report("criterion 6: spectrum multiplicities (two points, N<=7) and "
           "histogram (N<=8)", ok)


def test_criterion_7_structure():
    """Positivity classes, bar invariance and leading terms, N <= 6 and
    M <= 3 for BI."""
    ok = True
    for tag, M in [("A", None), ("BI", 1), ("BI", 2), ("BI", 3),
                   ("BII", None), ("BIII", None)]:
        for N in range(1, 7):
            rep = structural_checks(psi_vector(tag, N, M))
            ok = ok and all(rep.values())
    report("criterion 7: positivity / bar invariance / leading terms N<=6", ok)


def test_criterion_8_correlations():
    """Closed form equals brute force for 100 random observables per
    N <= 6, plus the single-site value."""
    ok = True
    rng = random.Random(123)
    for N in range(1, 7):
        for _ in range(100):
            a, p, m = random_observable(N, rng)
            ok = ok and correlation_check(N, a, p, m)
    single = correlation_closed(6, [6], [], [])
    ok = ok and single.evaluate(SpecPoint(7, 3, 1)) == Fraction(9, 10)
    report("criterion 8: 600 random correlation agreements", ok)


def test_criterion_9_appendix():
    """All twelve lemmas: exhaustive small grids plus 200 random draws
    each; the tridiagonal determinant vanishes symbolically for N <= 4."""
    ok = True
    from itertools import product as iproduct

    for lemma in LEMMA_IDS:
        if lemma == "appA":
            continue
        ok = ok and sweep(lemma, draws=200, seed=40)
        # exhaustive small grid
        lo = 1 if lemma in ("app8", "app15", "app17") else 0
        for I in (1, 2):
            for ms in iproduct((1, 2, 3), repeat=I):
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
                for ns in iproduct(range(lo, 3), repeat=ns_len):
                    ok = ok and verify_qidentity(lemma, {"ms": list(ms), "ns": list(ns)})
    for N in range(1, 5):
        ok = ok and verify_qidentity("appA", {"N": N})
    report("criterion 9: twelve appendix identities, grids + 200 draws", ok)


def test_criterion_10_conjectures():
    """Conjecture scorecards at the tabulated scales; agreement is
    reported, not assumed."""
    ok = True
    for N in range(1, 9):
        ok = ok and check_weight_histogram(N)
    for N in range(1, 21):
        got = decompose_sum("BII", N, degrees=[1])[1]
        ok = ok and Fraction(got) == bii_S_N1_closed(N)
    for N in range(1, 13):
        for i in range(1, min(4, N) + 1):
            ok = ok and check_typeA_P_conjecture(i, N)
            ok = ok and check_biii_P_conjecture(i, N)
    for N in range(2, 13):
        for i in range(1, min(3, N) + 1):
            ok = ok and check_bii_P_conjecture(i, N)
    for N in range(1, 7):
        for b in block_strings(N):
            good, _, _ = check_typeA_component_conjecture(N, b)
            ok = ok and good
    for N in range(1, 7):
        res = check_biii_component_conjecture(N)
        ok = ok and all(v[2] for v in res.values())
    report("criterion 10: conjecture scorecards all agree at desk scale", ok)


def test_criterion_11_numeric():
    """Exact ground-state certificate at q=11/10, Q=13/10, a_N=1,
    a_0 in {0, 1/10}, 2 <= N <= 8: the lowest eigenvalue of H is 0 and
    simple, with entrywise positivity of the BI and BIII components."""
    ok = True
    for N in range(2, 9):
        for a0 in (Fraction(0), Fraction(1, 10)):
            certified, pos = numeric_ground_state_check(
                N, Fraction(11, 10), Fraction(13, 10), Fraction(1), a0
            )
            ok = ok and certified and pos["BI"] and pos["BIII"]
    report("criterion 11: exact spectra flat at a simple zero, positive components", ok)
