"""Batch command-line front end.

Exit codes: 0 all checks passed, 1 a theorem-level check failed,
2 a conjecture-level check disagreed (escalated to 1 under
--strict-conjectures), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .ring import SpecPoint, ZeroDenominator
from .basis import build_diagram, check_tag, enumerate_strings, validate_kl_conditions
from . import algebra, combinatorics, coideal, ground_state, identities
from .kl_action import crosscheck_vs_standard, generator_names

EXIT_OK = 0
EXIT_THEOREM = 1
EXIT_CONJECTURE = 2
EXIT_USAGE = 64


def parse_at(text: str) -> SpecPoint:
    vals = {"q": Fraction(1), "Q": Fraction(1), "Q0": Fraction(1)}
    for part in text.split(","):
        name, _, raw = part.partition("=")
        name = name.strip()
        if name not in vals or not raw:
            raise ValueError(f"bad assignment {part!r}; use q=1,Q=2/3,Q0=1")
        vals[name] = Fraction(raw.strip())
    return SpecPoint(vals["q"], vals["Q"], vals["Q0"])


def require_tag(args) -> tuple[str, int | None]:
    tag = args.type
    M = getattr(args, "m", None)
    if tag != "standard":
        check_tag(tag, M)
    elif M is not None:
        raise ValueError("--m only applies to type BI")
    return tag, M


def emit(args, payload, text_lines):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def cmd_enumerate(args) -> int:
    tag, M = require_tag(args)
    if tag == "standard":
        rows = [{"string": s} for s in enumerate_strings(args.n)]
        emit(args, rows, [r["string"] for r in rows])
        return EXIT_OK
    rows = [build_diagram(tag, s, M).to_json() for s in enumerate_strings(args.n)]
    emit(
        args,
        rows,
        [build_diagram(tag, s, M).serialize() for s in enumerate_strings(args.n)],
    )
    return EXIT_OK


def cmd_psi(args) -> int:
    tag, M = require_tag(args)
    gs = ground_state.psi_vector(tag, args.n, M)
    if args.at:
        p = parse_at(args.at)
        vals = gs.evaluate(p)
        payload = {s: str(v) for s, v in sorted(vals.items())}
        emit(args, payload, [f"{s}: {v}" for s, v in sorted(vals.items())])
    else:
        payload = gs.to_json()
        emit(
            args,
            payload,
            [f"{s}: {t}" for s, t in sorted(payload["components"].items())],
        )
    return EXIT_OK


def _run_checks(checks, verbose=True):
    """checks: list of (name, callable() -> bool); prints one line each."""
    failed = []
    for name, fn in checks:
        ok = fn()
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failed.append(name)
    return failed


def verify_checks(args):
    tag, M = require_tag(args)
    N = args.n
    name = args.check
    checks = []
    if name in ("relations", "all"):
        checks.append(
            (
                f"defining relations N={N}",
                lambda: all(algebra.check_defining_relations(N).values()),
            )
        )
        checks.append(
            (f"quotient identities N={N}", lambda: algebra.check_quotient_alpha(N)[1])
        )
    if name in ("pauli", "all"):
        from .ring import RatioElem

        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        checks.append(
            (
                f"spin-chain form of H(2B) N={min(N,3)}",
                lambda: all(
                    algebra.pauli_equivalence_check(
                        min(N, 3), RatioElem.from_int(a), RatioElem.from_int(b)
                    )
                    for a, b in pts
                ),
            )
        )
    if name in ("commutant", "all"):
        checks.append(
            (
                f"[e_g, X] = 0 N={N}",
                lambda: all(algebra.commutation_check(N).values()),
            )
        )
    if name in ("klbasis", "all"):
        checks.append(
            (
                f"KL triangularity/coefficient classes {tag} N={N}",
                lambda: all(validate_kl_conditions(tag, N, M).values())
                if tag != "standard"
                else True,
            )
        )
    if name in ("klactions", "all"):
        if tag != "standard":
            for gen in generator_names(N):
                checks.append(
                    (
                        f"diagram action == conjugated matrix: {tag} {gen} N={N}",
                        lambda g=gen: crosscheck_vs_standard(tag, N, g, M)[0],
                    )
                )
    if name in ("xkl", "all"):
        if tag != "standard":
            checks.append(
                (
                    f"X action == conjugated matrix: {tag} N={N}",
                    lambda: crosscheck_vs_standard(tag, N, "X", M)[0],
                )
            )
    if name in ("eigen", "all"):
        if tag in ("BII", "BIII"):
            checks.append(
                (
                    f"triangular spectrum {tag} N={N}",
                    lambda: coideal.check_triangular_spectrum(tag, N),
                )
            )
        if tag != "standard":
            checks.append(
                (
                    f"binomial multiplicities {tag} N={N}",
                    lambda: coideal.check_multiplicity_theorem(
                        tag, N, M, seeds=(args.seed, args.seed + 1)
                    ),
                )
            )
        if tag == "BI":
            checks.append(
                (
                    f"index histogram {tag} N={N} M={M}",
                    lambda: coideal.check_bi_multiplicity_histogram(N, M),
                )
            )
    if name in ("groundstate", "all"):
        gs = ground_state.psi_vector(tag, N, M)
        checks.append((f"X Psi = lambda Psi {tag} N={N}", lambda: ground_state.verify_x_eigen(gs)))
        checks.append(
            (
                f"structural component claims {tag} N={N}",
                lambda: all(ground_state.structural_checks(gs).values()),
            )
        )
        if tag != "standard":
            checks.append(
                (
                    f"closed form == change of basis {tag} N={N}",
                    lambda: ground_state.oracle_change_of_basis(tag, N, M)[0],
                )
            )
    if name in ("annihilation", "all"):
        gs = ground_state.psi_vector(tag, N, M)
        checks.append(
            (
                f"e_g Psi = 0 (e_0 at the integrable point) {tag} N={N}",
                lambda: all(ground_state.verify_annihilation(gs).values()),
            )
        )
    if name in ("pf", "all"):
        def pf():
            lowest, pos = ground_state.numeric_ground_state_check(
                min(N, 8), 1.1, 1.3, 1.0, 0.1
            )
            return abs(lowest) < 1e-8 and all(pos.values())

        checks.append((f"numeric ground-state check N={min(N,8)}", pf))
    if not checks:
        # every --check choice adds a check unless it needs a decorated family
        raise ValueError(f"check {name!r} needs a decorated family (A, BI, BII or BIII)")
    return checks


def cmd_verify(args) -> int:
    try:
        checks = verify_checks(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failed = _run_checks(checks)
    return EXIT_THEOREM if failed else EXIT_OK


def cmd_spectrum(args) -> int:
    tag, M = require_tag(args)
    mult, p = coideal.eigen_multiplicities(tag, args.n, M, seed=args.seed)
    payload = {
        "point": {"q": str(p.q), "Q": str(p.Q), "Q0": str(p.Q0)},
        "multiplicities": {str(i): m for i, m in sorted(mult.items())},
    }
    lines = [f"sampled point: q={p.q} Q={p.Q} Q0={p.Q0}"]
    for i, m in sorted(mult.items()):
        label = f"[{args.n}+M-{2*i}]" if tag == "BI" else f"[Q;{args.n - 2*i}]"
        lines.append(f"eigenvalue {label}: multiplicity {m}")
    emit(args, payload, lines)
    return EXIT_OK


def cmd_sum(args) -> int:
    tag, M = require_tag(args)
    p = parse_at(args.at) if args.at else SpecPoint(1, 1, 1)
    val = combinatorics.sum_rule(tag, args.n, M, p)
    emit(args, {"sum": str(val)}, [str(val)])
    return EXIT_OK


def cmd_table(args) -> int:
    """Component-sum table over all families at q = Q = 1."""
    rows = [
        (label, [int(v) for v in sums])
        for _, label, sums in combinatorics.table_sums(args.nmax)
    ]
    if args.format == "csv":
        header = "family," + ",".join(f"N={n}" for n in range(1, args.nmax + 1))
        print(header)
        for label, vals in rows:
            print(label + "," + ",".join(str(v) for v in vals))
    else:
        emit(
            args,
            {label: vals for label, vals in rows},
            [f"{label}: {vals}" for label, vals in rows],
        )
    return EXIT_OK


def cmd_correlate(args) -> int:
    alphas, plus, minus = (
        [int(x) for x in raw.split(",")] if raw else []
        for raw in (args.alpha, args.plus, args.minus)
    )
    sites = alphas + plus + minus
    outside = [i for i in sites if not 1 <= i <= args.n]
    if outside:
        raise ValueError(f"sites {outside} lie outside 1..{args.n}")
    if len(set(sites)) != len(sites):
        # the closed form is a product of one factor per distinct site
        raise ValueError("a site may appear only once across --alpha, --plus and --minus")
    p = parse_at(args.at) if args.at else None
    closed = combinatorics.correlation_closed(args.n, alphas, plus, minus)
    agree = combinatorics.correlation_check(args.n, alphas, plus, minus)
    if p is not None:
        val = closed.evaluate(p)
        emit(
            args,
            {"value": str(val), "matches_brute_force": agree},
            [f"value = {val}", f"closed == brute force: {agree}"],
        )
    else:
        emit(
            args,
            {"value": closed.to_text(), "matches_brute_force": agree},
            [f"value = {closed.to_text()}", f"closed == brute force: {agree}"],
        )
    return EXIT_OK if agree else EXIT_THEOREM


def cmd_conjecture(args) -> int:
    name = args.check
    n_max = args.nmax
    disagreements = []

    def record(label, ok):
        print(f"{'AGREE' if ok else 'DISAGREE'}  {label}")
        if not ok:
            disagreements.append(label)

    if name in ("table1", "all"):
        rep = combinatorics.check_table1(n_max)
        bad = [k for k, v in rep.items() if not v[0]]
        record(f"Table of component sums, N <= {min(n_max, 9)}", not bad)
    if name in ("oeis", "all"):
        rep = combinatorics.check_sum_conjectures(min(n_max, 9))
        record("sum rules match the three integer sequences", all(rep.values()))
    if name in ("weights", "all"):
        ok = all(
            combinatorics.check_weight_histogram(N) for N in range(1, min(n_max, 8) + 1)
        )
        record(f"weight histogram of symmetric binary matrices, N <= {min(n_max,8)}", ok)
    if name in ("bii-s1", "all"):
        n_top = max(n_max, 20)
        ok = all(
            Fraction(combinatorics.decompose_sum("BII", N, degrees=[1])[1])
            == combinatorics.bii_S_N1_closed(N)
            for N in range(1, n_top + 1)
        )
        record(f"BII subleading coefficient closed form, N <= {n_top}", ok)
    if name in ("p-polys", "all"):
        okA = all(
            combinatorics.check_typeA_P_conjecture(i, N)
            for N in range(1, n_max + 1)
            for i in range(1, min(4, N) + 1)
        )
        record(f"type A near-bottom polynomials, N <= {n_max}", okA)
        ok3 = all(
            combinatorics.check_biii_P_conjecture(i, N)
            for N in range(1, n_max + 1)
            for i in range(1, min(4, N) + 1)
        )
        record(f"type BIII near-bottom polynomials, N <= {n_max}", ok3)
        okB = all(
            combinatorics.check_bii_P_conjecture(i, N)
            for N in range(2, n_max + 1)
            for i in range(1, min(3, N) + 1)
        )
        record(f"type BII near-top polynomials (shifted argument), N <= {n_max}", okB)
    if name in ("typea-components", "all"):
        ok = True
        for N in range(1, min(n_max, 6) + 1):
            for b in combinatorics.block_strings(N):
                good, _, _ = combinatorics.check_typeA_component_conjecture(N, b)
                ok = ok and good
        record(f"type A components as admissible-matrix sums, N <= {min(n_max,6)}", ok)
    if name in ("biii-paths", "all"):
        ok = True
        for N in range(1, min(n_max, 6) + 1):
            res = combinatorics.check_biii_component_conjecture(N)
            ok = ok and all(v[2] for v in res.values())
        record(f"BIII components as signed-matrix path counts, N <= {min(n_max,6)}", ok)
    if name in ("recurrences", "all"):
        ok = (
            combinatorics.enumerate_bisym_perm(2) == combinatorics.oeis_sequence("A000902", 2)
            and combinatorics.enumerate_bisym_perm(3) == combinatorics.oeis_sequence("A000902", 3)
            and all(
                combinatorics.count_pattern_avoiding(n)
                == combinatorics.oeis_sequence("A083886", n)
                for n in range(1, 6)
            )
        )
        record("matrix enumerations match their recurrences", ok)
    if disagreements:
        return EXIT_THEOREM if args.strict_conjectures else EXIT_CONJECTURE
    return EXIT_OK


def cmd_identities(args) -> int:
    ids = identities.LEMMA_IDS if args.lemma == "all" else (args.lemma,)
    failed = []
    for lemma in ids:
        if lemma == "appA":
            ok = identities.verify_qidentity("appA", {"N": min(args.n, 4)})
        else:
            ok = identities.sweep(lemma, draws=args.draws, seed=args.seed)
        print(f"{'PASS' if ok else 'FAIL'}  {lemma}")
        if not ok:
            failed.append(lemma)
    return EXIT_THEOREM if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tbtl",
        description="Exact verifier for the two-boundary loop model on "
        "decorated bases.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, with_type=True):
        if with_type:
            p.add_argument(
                "--type",
                default="A",
                choices=["A", "BI", "BII", "BIII", "standard"],
            )
            p.add_argument("--m", type=int, default=None, help="label bound for BI")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--seed", type=int, default=20260809)

    p = sub.add_parser("enumerate", help="list basis diagrams")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("psi", help="ground-state components")
    common(p)
    p.add_argument("--at", default=None, help="rational point q=..,Q=..,Q0=..")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("verify", help="run theorem-level checks")
    common(p)
    p.add_argument(
        "--check",
        default="all",
        choices=[
            "relations",
            "pauli",
            "commutant",
            "klbasis",
            "klactions",
            "xkl",
            "eigen",
            "groundstate",
            "annihilation",
            "pf",
            "all",
        ],
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", help="multiplicities at a generic point")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("sum", help="component sum at a point")
    common(p)
    p.add_argument("--at", default=None)
    p.set_defaults(fn=cmd_sum)

    p = sub.add_parser("table", help="sum table over every family")
    p.add_argument("--nmax", type=int, default=9)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("correlate", help="correlation functions")
    common(p, with_type=False)
    p.add_argument("--alpha", default="", help="projector sites, comma separated")
    p.add_argument("--plus", default="", help="raising sites")
    p.add_argument("--minus", default="", help="lowering sites")
    p.add_argument("--at", default=None)
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("conjecture", help="conjecture scorecards")
    p.add_argument(
        "--check",
        default="all",
        choices=[
            "table1",
            "oeis",
            "weights",
            "bii-s1",
            "p-polys",
            "typea-components",
            "biii-paths",
            "recurrences",
            "all",
        ],
    )
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--strict-conjectures", action="store_true")
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("identities", help="appendix lemma sweeps")
    p.add_argument("--lemma", default="all", choices=("all",) + identities.LEMMA_IDS)
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=20260809)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_identities)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, ZeroDenominator) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
