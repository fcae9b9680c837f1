"""Batch command-line front end.

Exit codes: 0 all checks passed, 1 a theorem-level check failed,
2 a conjecture-level check disagreed (escalated to 1 under
--strict-conjectures), 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .ring import RatioElem, SpecPoint, ZeroDenominator
from .basis import build_diagram, check_tag, enumerate_strings
from . import algebra, basis, combinatorics, coideal, ground_state, identities, kl_action

EXIT_OK = 0
EXIT_THEOREM = 1
EXIT_CONJECTURE = 2
EXIT_USAGE = 64
SEED = 20260809  # default --seed of verify, spectrum and identities


def size(text: str) -> int:
    """argparse type of --n, --nmax and --draws: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def parse_at(text: str) -> SpecPoint:
    vals = {"q": Fraction(1), "Q": Fraction(1), "Q0": Fraction(1)}
    for part in text.split(","):
        name, _, raw = part.partition("=")
        name = name.strip()
        if name not in vals or not raw:
            raise ValueError(f"bad assignment {part!r}; use q=1,Q=2/3,Q0=1")
        try:
            vals[name] = Fraction(raw.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {part!r}") from None
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
    strings = enumerate_strings(args.n)
    if tag == "standard":
        emit(args, [{"string": s} for s in strings], strings)
    else:
        diagrams = [build_diagram(tag, s, M) for s in strings]
        emit(args, [D.to_json() for D in diagrams], [D.serialize() for D in diagrams])
    return EXIT_OK


def cmd_psi(args) -> int:
    tag, M = require_tag(args)
    gs = ground_state.psi_vector(tag, args.n, M)
    if args.at:
        vals = sorted(gs.evaluate(parse_at(args.at)).items())
        emit(args, {s: str(v) for s, v in vals}, [f"{s}: {v}" for s, v in vals])
    else:
        payload = gs.to_json()
        emit(args, payload, [f"{s}: {t}" for s, t in sorted(payload["components"].items())])
    return EXIT_OK


def _run_checks(args, checks, words=("PASS", "FAIL")):
    """Run the rows of a check table that ``args.check`` selects and that
    apply to this family; return the labels of the rows that failed.

    A row is (--check group, applies, label, thunk).  Each row prints one
    line: ``<word>  <label>`` in text, or ``{"check": label, "ok": bool}``
    under --format json.  A thunk that raises has failed: its line also
    names the exception, and the remaining rows still run.
    """
    selected = [
        (label, fn)
        for group, applies, label, fn in checks
        if applies and args.check in (group, "all")
    ]
    if not selected:
        # only verify has rows that skip a family: those need a decorated one
        raise ValueError(f"check {args.check!r} needs a decorated family (A, BI, BII or BIII)")
    failed = []
    for label, fn in selected:
        try:
            ok, error = bool(fn()), None
        except Exception as exc:
            ok, error = False, f"{type(exc).__name__}: {exc}"
        if args.format == "json":
            print(json.dumps({"check": label, "ok": ok, **({"error": error} if error else {})}))
        else:
            print(f"{words[0] if ok else words[1]}  {label}" + (f"  ({error})" if error else ""))
        if not ok:
            failed.append(label)
    return failed


def verify_checks(args):
    """The verify table.  Thunks look their functions up when they run, so a
    patched module attribute is the one called."""
    tag, M = require_tag(args)
    N, seed = args.n, args.seed
    if N < 2 and args.check in ("relations", "all"):
        raise ValueError("need N >= 2")  # the defining relations need two sites
    decorated = tag != "standard"
    # built inside the first check that needs it, once per run
    psi = functools.cache(lambda: ground_state.psi_vector(tag, N, M))

    def pauli():
        r = RatioElem.from_int
        return all(
            algebra.pauli_equivalence_check(min(N, 3), r(a), r(b))
            for a, b in [(0, 0), (1, 0), (0, 1), (1, 1)]
        )

    def pf():
        certified, pos = ground_state.numeric_ground_state_check(
            N, Fraction(11, 10), Fraction(13, 10), Fraction(1), Fraction(1, 10)
        )
        return certified and all(pos.values())

    return [
        ("relations", True, f"defining relations N={N}",
         lambda: all(algebra.check_defining_relations(N).values())),
        ("relations", True, f"quotient identities N={N}",
         lambda: algebra.check_quotient_alpha(N)),
        ("pauli", True, f"spin-chain form of H(2B) N={min(N, 3)}", pauli),
        ("commutant", True, f"[e_g, X] = 0 N={N}",
         lambda: all(algebra.commutation_check(N).values())),
        ("klbasis", decorated, f"KL triangularity/coefficient classes {tag} N={N}",
         lambda: all(basis.validate_kl_conditions(tag, N, M).values())),
        *(
            ("klactions", decorated, f"diagram action == conjugated matrix: {tag} {gen} N={N}",
             lambda gen=gen: kl_action.crosscheck_vs_standard(tag, N, gen, M)[0])
            for gen in algebra.generator_names(N)
        ),
        ("xkl", decorated, f"X action == conjugated matrix: {tag} N={N}",
         lambda: kl_action.crosscheck_vs_standard(tag, N, "X", M)[0]),
        ("eigen", tag in ("BII", "BIII"), f"triangular spectrum {tag} N={N}",
         lambda: coideal.check_triangular_spectrum(tag, N)),
        ("eigen", decorated, f"binomial multiplicities {tag} N={N}",
         lambda: coideal.check_multiplicity_theorem(tag, N, M, seeds=(seed, seed + 1))),
        ("eigen", tag == "BI", f"index histogram {tag} N={N} M={M}",
         lambda: coideal.check_bi_multiplicity_histogram(N, M)),
        ("groundstate", True, f"X Psi = lambda Psi {tag} N={N}",
         lambda: ground_state.verify_x_eigen(psi())),
        ("groundstate", True, f"structural component claims {tag} N={N}",
         lambda: all(ground_state.structural_checks(psi()).values())),
        ("groundstate", decorated, f"closed form == change of basis {tag} N={N}",
         lambda: ground_state.oracle_change_of_basis(psi())[0]),
        ("annihilation", True, f"e_g Psi = 0 (e_0 at the integrable point) {tag} N={N}",
         lambda: all(ground_state.verify_annihilation(psi()).values())),
        ("pf", True, f"numeric ground-state check N={N}", pf),
    ]


def cmd_verify(args) -> int:
    return EXIT_THEOREM if _run_checks(args, verify_checks(args)) else EXIT_OK


def cmd_spectrum(args) -> int:
    tag, M = require_tag(args)
    mult, p = coideal.eigen_multiplicities(tag, args.n, M, seed=args.seed)
    payload = {
        "point": {"q": str(p.q), "Q": str(p.Q), "Q0": str(p.Q0)},
        "multiplicities": {str(i): m for i, m in sorted(mult.items())},
    }
    lines = [f"sampled point: q={p.q} Q={p.Q} Q0={p.Q0}"]
    for i, m in sorted(mult.items()):
        label = f"[{args.n}+{M}-{2*i}]" if tag == "BI" else f"[Q;{args.n - 2*i}]"
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
    value = str(closed.evaluate(p)) if p is not None else closed.to_text()
    emit(
        args,
        {"value": value, "matches_brute_force": agree},
        [f"value = {value}", f"closed == brute force: {agree}"],
    )
    return EXIT_OK if agree else EXIT_THEOREM


def conjecture_checks(args):
    """The conjecture table, in the same row shape as verify's."""
    n = args.nmax
    n_top = max(n, 20)

    def near(first, top):
        return [(i, N) for N in range(first, n + 1) for i in range(1, min(top, N) + 1)]

    return [
        ("table1", True, f"Table of component sums, N <= {min(n, 9)}",
         lambda: all(v[0] for v in combinatorics.check_table1(n).values())),
        ("oeis", True, "sum rules match the three integer sequences",
         lambda: all(combinatorics.check_sum_conjectures(min(n, 9)).values())),
        ("weights", True, f"weight histogram of symmetric binary matrices, N <= {min(n, 8)}",
         lambda: all(combinatorics.check_weight_histogram(N) for N in range(1, min(n, 8) + 1))),
        ("bii-s1", True, f"BII subleading coefficient closed form, N <= {n_top}",
         lambda: all(
             Fraction(combinatorics.decompose_sum("BII", N, degrees=[1])[1])
             == combinatorics.bii_S_N1_closed(N)
             for N in range(1, n_top + 1)
         )),
        ("p-polys", True, f"type A near-bottom polynomials, N <= {n}",
         lambda: all(combinatorics.check_typeA_P_conjecture(i, N) for i, N in near(1, 4))),
        ("p-polys", True, f"type BIII near-bottom polynomials, N <= {n}",
         lambda: all(combinatorics.check_biii_P_conjecture(i, N) for i, N in near(1, 4))),
        ("p-polys", True, f"type BII near-top polynomials (shifted argument), N <= {n}",
         lambda: all(combinatorics.check_bii_P_conjecture(i, N) for i, N in near(2, 3))),
        ("typea-components", True,
         f"type A components as admissible-matrix sums, N <= {min(n, 6)}",
         lambda: all(
             combinatorics.check_typeA_component_conjecture(N, b)[0]
             for N in range(1, min(n, 6) + 1)
             for b in combinatorics.block_strings(N)
         )),
        ("biii-paths", True,
         f"BIII components as signed-matrix path counts, N <= {min(n, 6)}",
         lambda: all(
             v[2]
             for N in range(1, min(n, 6) + 1)
             for v in combinatorics.check_biii_component_conjecture(N).values()
         )),
        ("recurrences", True, "matrix enumerations match their recurrences",
         lambda: all(
             combinatorics.enumerate_bisym_perm(k) == combinatorics.oeis_sequence("A000902", k)
             for k in (2, 3)
         ) and all(
             combinatorics.count_pattern_avoiding(k) == combinatorics.oeis_sequence("A083886", k)
             for k in range(1, 6)
         )),
    ]


def cmd_conjecture(args) -> int:
    if not _run_checks(args, conjecture_checks(args), ("AGREE", "DISAGREE")):
        return EXIT_OK
    return EXIT_THEOREM if args.strict_conjectures else EXIT_CONJECTURE


def cmd_identities(args) -> int:
    def check(lemma):
        if lemma == "appA":
            return identities.verify_qidentity("appA", {"N": args.n})
        return identities.sweep(lemma, draws=args.draws, seed=args.seed)

    checks = [
        (lemma, True, lemma, lambda lemma=lemma: check(lemma))
        for lemma in identities.LEMMA_IDS
    ]
    return EXIT_THEOREM if _run_checks(args, checks) else EXIT_OK


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
        p.add_argument("--n", type=size, required=True)
        p.add_argument("--format", choices=["text", "json"], default="text")

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
        choices="relations pauli commutant klbasis klactions xkl eigen groundstate "
        "annihilation pf all".split(),
    )
    p.add_argument("--seed", type=int, default=SEED)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", help="multiplicities at a generic point")
    common(p)
    p.add_argument("--seed", type=int, default=SEED)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("sum", help="component sum at a point")
    common(p)
    p.add_argument("--at", default=None)
    p.set_defaults(fn=cmd_sum)

    p = sub.add_parser("table", help="sum table over every family")
    p.add_argument("--nmax", type=size, default=9)
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
        choices="table1 oeis weights bii-s1 p-polys typea-components biii-paths "
        "recurrences all".split(),
    )
    p.add_argument("--nmax", type=size, default=8)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--strict-conjectures", action="store_true")
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("identities", help="appendix lemma sweeps")
    p.add_argument(
        "--lemma", dest="check", default="all", choices=("all",) + identities.LEMMA_IDS
    )
    p.add_argument("--draws", type=size, default=200)
    p.add_argument("--n", type=size, default=3, help="the N of the appA lemma")
    p.add_argument("--seed", type=int, default=SEED)
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
