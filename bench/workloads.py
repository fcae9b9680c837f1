"""The verdict workloads: the argv each job passes to ``tbtl.cli.main`` and
the references its output is checked against.

The references are kept here, not read from the program, so that a change
that breaks both a result and the program's own table still fails.
"""

from __future__ import annotations

import json
from math import comb
from typing import Callable, NamedTuple

# Component sums at q = Q = 1 for N = 1..9, one row per family, as tabulated
# in the paper (Table 1).
PAPER_SUMS = {
    "A": [2, 5, 14, 43, 142, 499, 1850, 7193, 29186],
    "BI(M=1)": [3, 10, 38, 156, 692, 3256, 16200, 84496, 460592],
    "BI(M=2)": [3, 11, 44, 192, 892, 4396, 22752, 123248, 695024],
    "BI(M=3)": [3, 11, 45, 200, 952, 4796, 25412, 140720, 811280],
    "BI(M=inf)": [3, 11, 45, 201, 963, 4899, 26253, 147345, 862083],
    "BII": [3, 9, 33, 129, 555, 2529, 12273, 62481, 333603],
    "BIII": [3, 11, 45, 201, 963, 4899, 26253, 147345, 862083],
}

VERIFY_BI_CHECKS = (
    "defining relations N=8",
    "quotient identities N=8",
    "spin-chain form of H(2B) N=3",
    "[e_g, X] = 0 N=8",
    "KL triangularity/coefficient classes BI N=8",
    *(f"diagram action == conjugated matrix: BI {g} N=8"
      for g in ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "eN", "e0")),
    "X action == conjugated matrix: BI N=8",
    "binomial multiplicities BI N=8",
    "index histogram BI N=8 M=2",
    "X Psi = lambda Psi BI N=8",
    "structural component claims BI N=8",
    "closed form == change of basis BI N=8",
    "e_g Psi = 0 (e_0 at the integrable point) BI N=8",
    "numeric ground-state check N=8",
)

LEMMAS = ("appA", "app0", "app1", "app2", "app8", "app9", "app10", "app11",
          "app13", "app15", "app16", "app17")

SPECTRUM_N = 8


def check_table(stdout: str) -> tuple[int, int]:
    """(attempted, failed) over the 63 tabulated sums."""
    attempted = sum(len(row) for row in PAPER_SUMS.values())
    try:
        got = json.loads(stdout)
    except ValueError:
        return attempted, attempted
    if not isinstance(got, dict):
        return attempted, attempted
    failed = 0
    for label, row in PAPER_SUMS.items():
        values = got.get(label)
        if not isinstance(values, list):
            failed += len(row)
            continue
        failed += sum(
            1 for i, want in enumerate(row) if i >= len(values) or values[i] != want
        )
    return attempted, failed


def check_pass_lines(stdout: str, names) -> tuple[int, int]:
    """(attempted, failed): each name needs a ``PASS  <name>`` line, and a
    line that reports none of the names costs one check too."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    known = {f"{verdict}  {name}" for verdict in ("PASS", "FAIL") for name in names}
    missing = sum(1 for name in names if f"PASS  {name}" not in lines)
    unexpected = sum(1 for line in lines if line not in known)
    return len(names), min(len(names), missing + unexpected)


def check_spectrum(stdout: str) -> tuple[int, int]:
    """(attempted, failed): multiplicity i must be binomial(N, i)."""
    attempted = SPECTRUM_N + 1
    try:
        got = json.loads(stdout)["multiplicities"]
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    if not isinstance(got, dict):
        return attempted, attempted
    failed = sum(1 for i in range(attempted) if got.get(str(i)) != comb(SPECTRUM_N, i))
    return attempted, failed


class Workload(NamedTuple):
    """One kind of verdict job.

    ``argv(seed)`` gives the job's arguments, ``check(stdout)`` its
    (attempted, failed) check counts, and ``nonzero`` the per-layer metrics
    that must read above zero in a traced run of this workload.
    """

    name: str
    argv: Callable[[int], list[str]]
    check: Callable[[str], tuple[int, int]]
    nonzero: tuple[str, ...]


# Metrics every workload must show: the entry layer and the ring under it.
_ENTRY = ("cli.self_s", "cli.main.self_s", "ring.self_s", "trace.overhead_s")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sum-table",
            lambda seed: ["table", "--nmax", "9", "--format", "json"],
            check_table,
            _ENTRY + (
                "basis.self_s",
                "ground_state.self_s",
                "combinatorics.self_s",
                "ring.RingElem.evaluate.calls",
                "ring.RingElem.evaluate.self_s",
                "ring.atom_eval.calls",
                "ground_state.FactorizedScalar.evaluate.self_s",
                "combinatorics.sum_rule.calls",
                "combinatorics.sum_rule.self_s",
                "ground_state.psi_component.calls",
                "ground_state.psi_component.self_s",
            ),
        ),
        Workload(
            "verify-bi",
            lambda seed: ["verify", "--check", "all", "--type", "BI", "--m", "2",
                          "--n", "8", "--seed", str(seed)],
            lambda stdout: check_pass_lines(stdout, VERIFY_BI_CHECKS),
            _ENTRY + (
                "basis.self_s",
                "algebra.self_s",
                "kl_action.self_s",
                "coideal.self_s",
                "ground_state.self_s",
                "coideal.eigen_multiplicities.self_s",
                "coideal.eval_op_at.self_s",
                "coideal.x_matrix_kl.self_s",
                "ring.RingElem.mul.calls",
                "ring.RingElem.mul.self_s",
                "ring.exact_div.calls",
                "ring.exact_div.self_s",
                "algebra.op_apply.calls",
                "algebra.op_apply.self_s",
                "algebra.generator_matrix.self_s",
                "algebra.generator_matrix.hit_ratio",
                "basis.standard_to_kl.calls",
                "basis.standard_to_kl.self_s",
                "basis.transition_matrix.self_s",
                "basis.transition_matrix.hit_ratio",
                "basis.build_diagram.calls",
                "basis.build_diagram.self_s",
                "basis.build_diagram.hit_ratio",
                "basis.enumerate_strings.calls",
                "kl_action.apply_generator_kl.calls",
                "kl_action.apply_generator_kl.self_s",
                "kl_action.crosscheck_vs_standard.total_s",
                "ground_state.verify_x_eigen.total_s",
                "ground_state.verify_annihilation.total_s",
                "ground_state.oracle_change_of_basis.total_s",
                "ground_state.numeric_ground_state_check.total_s",
                "algebra.check_defining_relations.total_s",
                "algebra.commutation_check.total_s",
                "ring.RingElem.hash.calls",
                "ring.RatioElem.add.calls",
                "ring.RatioElem.eq.calls",
                "coideal.x_matrix_kl.hit_ratio",
                "ring.qint.hit_ratio",
            ),
        ),
        Workload(
            "spectrum-a",
            lambda seed: ["spectrum", "--type", "A", "--n", str(SPECTRUM_N),
                          "--format", "json", "--seed", str(seed)],
            check_spectrum,
            _ENTRY + (
                "basis.self_s",
                "coideal.self_s",
                "coideal.eigen_multiplicities.self_s",
                "coideal.eval_op_at.self_s",
                "coideal.x_matrix_kl.self_s",
            ),
        ),
        Workload(
            "identities",
            lambda seed: ["identities", "--lemma", "all", "--draws", "200",
                          "--seed", str(seed)],
            lambda stdout: check_pass_lines(stdout, LEMMAS),
            _ENTRY + (
                "identities.self_s",
                "identities.verify_qidentity.calls",
                "identities.verify_qidentity.self_s",
                "ring.RingElem.hash.calls",
                "ring.RatioElem.add.calls",
                "ring.RatioElem.add.self_s",
                "ring.RatioElem.eq.calls",
                "ring.RatioElem.eq.self_s",
            ),
        ),
    )
}
