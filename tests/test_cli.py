import argparse
import json

import pytest

from tbtl.cli import build_parser, main, parse_at

BASES = [
    ["--type", "A"],
    ["--type", "BI", "--m", "1"],
    ["--type", "BI", "--m", "2"],
    ["--type", "BII"],
    ["--type", "BIII"],
    ["--type", "standard"],
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_parse_at(self):
        from fractions import Fraction

        p = parse_at("q=1,Q=2/3,Q0=5")
        assert p.q == 1 and p.Q == Fraction(2, 3) and p.Q0 == 5

    def test_bad_at(self):
        with pytest.raises(ValueError):
            parse_at("bogus=2")


class TestCommands:
    def test_sum_table_cell(self, capsys):
        code, out = run(capsys, "sum", "--type", "A", "--n", "4", "--at", "q=1,Q=1")
        assert code == 0 and out.strip() == "43"

    def test_sum_bi_requires_m(self, capsys):
        code, _ = run(capsys, "sum", "--type", "BI", "--n", "3")
        assert code == 64

    def test_psi_json(self, capsys):
        code, out = run(capsys, "psi", "--type", "standard", "--n", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["components"]["++-+"] == "q^5*Q^3"
        assert len(data["components"]) == 16

    def test_enumerate(self, capsys):
        code, out = run(capsys, "enumerate", "--type", "BI", "--m", "2", "--n", "3",
                        "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 8
        assert all(r["type"] == "BI" and r["M"] == 2 for r in rows)

    def test_verify_annihilation(self, capsys):
        code, out = run(capsys, "verify", "--check", "annihilation", "--type", "BII", "--n", "4")
        assert code == 0 and "PASS" in out

    def test_verify_relations(self, capsys):
        code, out = run(capsys, "verify", "--check", "relations", "--type", "A", "--n", "3")
        assert code == 0

    def test_spectrum(self, capsys):
        code, out = run(capsys, "spectrum", "--type", "A", "--n", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["multiplicities"] == {"0": 1, "1": 3, "2": 3, "3": 1}

    def test_spectrum_bi_label_is_numeric(self, capsys):
        code, out = run(capsys, "spectrum", "--type", "BI", "--m", "2", "--n", "3")
        labels = [line.split(":")[0] for line in out.splitlines()[1:]]
        assert code == 0
        assert labels == [f"eigenvalue [3+2-{k}]" for k in (0, 2, 4, 6)]

    def test_spectrum_deterministic(self, capsys):
        _, out1 = run(capsys, "spectrum", "--type", "A", "--n", "3", "--seed", "5")
        _, out2 = run(capsys, "spectrum", "--type", "A", "--n", "3", "--seed", "5")
        assert out1 == out2

    def test_correlate(self, capsys):
        code, out = run(
            capsys, "correlate", "--n", "4", "--alpha", "4", "--at", "q=1,Q=2"
        )
        assert code == 0 and "4/5" in out

    def test_conjecture_exit(self, capsys):
        code, out = run(capsys, "conjecture", "--check", "oeis", "--nmax", "5")
        assert code == 0 and "AGREE" in out

    def test_conjecture_table1_beyond_table(self, capsys):
        # the table stops at N = 9; a larger --nmax compares what it has
        code = main(["conjecture", "--check", "table1", "--nmax", "10"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == "AGREE  Table of component sums, N <= 9\n"

    @pytest.mark.parametrize("nmax, top", [("5", 20), ("22", 22)])
    def test_conjecture_bii_s1_names_checked_bound(self, capsys, nmax, top):
        # bii-s1 checks N <= max(nmax, 20) and must say so
        code, out = run(capsys, "conjecture", "--check", "bii-s1", "--nmax", nmax)
        assert code == 0
        assert out == f"AGREE  BII subleading coefficient closed form, N <= {top}\n"

    def test_identities(self, capsys):
        code, out = run(capsys, "identities", "--lemma", "app0", "--draws", "10")
        assert code == 0 and "PASS  app0" in out

    def test_usage_error(self, capsys):
        code = main(["bogus-verb"])
        assert code == 64

    def test_verify_rejects_bi_m0(self, capsys):
        code, out = run(
            capsys, "verify", "--check", "relations", "--type", "BI", "--m", "0", "--n", "3"
        )
        assert code == 64 and "PASS" not in out

    @pytest.mark.parametrize("check", ["klactions", "xkl", "klbasis", "eigen"])
    def test_verify_standard_needs_decorated_family(self, capsys, check):
        code = main(["verify", "--check", check, "--type", "standard", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 64 and "PASS" not in captured.out
        assert "needs a decorated family" in captured.err

    def test_verify_xkl_mismatch_fails(self, capsys, monkeypatch):
        from tbtl import kl_action
        from tbtl.ring import RatioElem

        rule = kl_action.apply_X_kl

        def perturbed(tag, D):
            out = rule(tag, D)
            if D.string == "+-":
                out["--"] = out["--"] * RatioElem.from_int(2)
            return out

        monkeypatch.setattr(kl_action, "apply_X_kl", perturbed)
        code, out = run(capsys, "verify", "--check", "xkl", "--type", "BIII", "--n", "2")
        assert code == 1
        assert out == "FAIL  X action == conjugated matrix: BIII N=2\n"

    def test_verify_annihilation_fails_if_e0_vanishes(self, capsys, monkeypatch):
        # an e_0 rule that is zero outright must not pass as e_0 Psi = 0
        from tbtl import kl_action

        monkeypatch.setattr(kl_action, "apply_e0_kl", lambda tag, D: {})
        code, out = run(capsys, "verify", "--check", "annihilation", "--type", "A", "--n", "3")
        assert code == 1
        assert out == "FAIL  e_g Psi = 0 (e_0 at the integrable point) A N=3\n"

    def test_verify_pf_fails_on_asymmetric_hamiltonian(self, capsys, monkeypatch):
        # a fault in H is a failed check (exit 1), not a usage error (exit 64)
        from tbtl import algebra
        from tbtl.ring import R_ONE

        build = algebra.generator_matrix

        def skewed(N, gen):
            op = build(N, gen)
            if gen != "e1":
                return op
            op = {col: dict(column) for col, column in op.items()}
            op["+--"]["---"] = R_ONE  # below the diagonal, no partner above
            return op

        monkeypatch.setattr(algebra, "generator_matrix", skewed)
        code = main(["verify", "--check", "pf", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "FAIL  numeric ground-state check N=3\n"
        assert captured.err == ""

    def test_verify_pf_runs_at_n(self, capsys):
        code, out = run(capsys, "verify", "--check", "pf", "--n", "9")
        assert code == 0 and out == "PASS  numeric ground-state check N=9\n"

    def assert_pf_fails(self, capsys):
        code = main(["verify", "--check", "pf", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "FAIL  numeric ground-state check N=3\n"
        assert captured.err == ""

    def test_verify_pf_fails_on_wrong_integrable_q0(self, capsys, monkeypatch):
        from fractions import Fraction

        from tbtl import ground_state
        from tbtl.ring import SpecPoint

        # the certificate's point only; the positivity point has Q0 = 1
        monkeypatch.setattr(
            ground_state, "SpecPoint",
            lambda q, Q, Q0=1: SpecPoint(q, Q, Fraction(7, 5) if Q0 != 1 else Q0),
        )
        self.assert_pf_fails(capsys)

    def test_verify_pf_fails_on_flipped_block_sign(self, capsys, monkeypatch):
        from tbtl import algebra

        build = algebra.generator_matrix

        def flipped(N, gen):
            op = build(N, gen)
            if gen != "e1":
                return op
            op = {col: dict(column) for col, column in op.items()}
            op["+-+"]["+-+"] = -op["+-+"]["+-+"]  # -1/q -> +1/q in one block
            return op

        monkeypatch.setattr(algebra, "generator_matrix", flipped)
        self.assert_pf_fails(capsys)

    def test_verify_pf_fails_on_negative_a0(self, capsys, monkeypatch):
        from tbtl import ground_state

        check = ground_state.numeric_ground_state_check
        monkeypatch.setattr(
            ground_state, "numeric_ground_state_check",
            lambda N, q, Q, aN, a0: check(N, q, Q, aN, -a0),
        )
        self.assert_pf_fails(capsys)

    def test_verify_eigen_fails_on_shifted_candidate(self, capsys, monkeypatch):
        # a wrong claimed spectrum prints FAIL; it must not end in a traceback
        from tbtl import coideal
        from tbtl.ring import RatioElem

        claimed = coideal.candidate_eigenvalues

        def shifted(tag, N, M):
            (i, lam), *rest = claimed(tag, N, M)
            return [(i, lam + RatioElem.from_int(1)), *rest]

        monkeypatch.setattr(coideal, "candidate_eigenvalues", shifted)
        code, out = run(capsys, "verify", "--check", "eigen", "--type", "A", "--n", "3")
        assert code == 1
        assert out == "FAIL  binomial multiplicities A N=3\n"

    def test_verify_eigen_fails_on_perturbed_x(self, capsys, monkeypatch):
        from tbtl import coideal
        from tbtl.ring import RatioElem

        cached = coideal.x_matrix_kl

        def perturbed(tag, N, M=None):
            X = {col: dict(column) for col, column in cached(tag, N, M).items()}
            X["+++"]["+++"] = X["+++"]["+++"] + RatioElem.from_int(1)
            return X

        monkeypatch.setattr(coideal, "x_matrix_kl", perturbed)
        code, out = run(capsys, "verify", "--check", "eigen", "--type", "A", "--n", "3")
        assert code == 1
        assert out == "FAIL  binomial multiplicities A N=3\n"

    def test_verify_groundstate_fails_on_shifted_component(self, capsys, monkeypatch):
        # one closed-form component off by a factor of q must fail every
        # check that reads Psi, not only the numeric ones
        from tbtl import ground_state

        closed_form = ground_state.psi_component

        def shifted(tag, D):
            f = closed_form(tag, D)
            if D.string == "+-+-":
                f.q_exp += 1
            return f

        monkeypatch.setattr(ground_state, "psi_component", shifted)
        code, out = run(
            capsys, "verify", "--check", "groundstate", "--type", "BI", "--m", "2", "--n", "4"
        )
        assert code == 1
        assert out == (
            "FAIL  X Psi = lambda Psi BI N=4\n"
            "FAIL  structural component claims BI N=4\n"
            "FAIL  closed form == change of basis BI N=4\n"
        )

    def test_verify_fails_on_disagreeing_x_constructions(self, capsys, monkeypatch):
        # a check that raises prints FAIL with the exception, exits 1 and
        # leaves the later rows to run
        from tbtl import algebra

        build = algebra.x_matrix_coproduct

        def doubled(N):
            X = {col: dict(column) for col, column in build(N).items()}
            col = next(iter(X))
            row = next(iter(X[col]))
            X[col][row] = X[col][row] + X[col][row]
            return X

        monkeypatch.setattr(algebra, "x_matrix_coproduct", doubled)
        algebra.generator_matrix.cache_clear()  # X is built afresh, with the mutant
        error = "AssertionError: the two constructions of X disagree"
        for fmt in ("text", "json"):
            code = main(["verify", "--check", "all", "--type", "A", "--n", "3", "--format", fmt])
            captured = capsys.readouterr()
            assert code == 1 and captured.err == ""
            lines = captured.out.splitlines()
            assert len(lines) == 16
            if fmt == "text":
                assert lines[3] == f"FAIL  [e_g, X] = 0 N=3  ({error})"
                assert lines[9] == f"FAIL  X action == conjugated matrix: A N=3  ({error})"
                assert lines[-1] == "PASS  numeric ground-state check N=3"
            else:
                records = [json.loads(line) for line in lines]
                assert records[3] == {"check": "[e_g, X] = 0 N=3", "ok": False, "error": error}
                assert records[-1] == {"check": "numeric ground-state check N=3", "ok": True}
                assert [r["ok"] for r in records].count(False) == 2

    def test_verify_value_error_in_a_check_is_a_fail(self, capsys, monkeypatch):
        # not a usage error: the arguments were fine and the check ran
        from tbtl import ground_state

        def broken(gs):
            raise ValueError("parity failure: 3 is odd")

        monkeypatch.setattr(ground_state, "verify_x_eigen", broken)
        code = main(["verify", "--check", "groundstate", "--type", "A", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert captured.out == (
            "FAIL  X Psi = lambda Psi A N=3  (ValueError: parity failure: 3 is odd)\n"
            "PASS  structural component claims A N=3\n"
            "PASS  closed form == change of basis A N=3\n"
        )

    def test_verify_non_polynomial_component_is_a_fail(self, capsys, monkeypatch):
        from tbtl import ground_state

        closed_form = ground_state.psi_component

        def over_five(tag, D):
            f = closed_form(tag, D)
            if D.string == "++--":
                f.times_qint(5, inverse=True)
            return f

        monkeypatch.setattr(ground_state, "psi_component", over_five)
        code = main(["verify", "--check", "groundstate", "--type", "A", "--n", "4"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        first, structural, oracle = captured.out.splitlines()
        assert first == "FAIL  X Psi = lambda Psi A N=4"
        assert structural.startswith(
            "FAIL  structural component claims A N=4  (NonPolynomialComponent: "
        ) and structural.endswith(" is not a Laurent polynomial)")
        assert oracle == "FAIL  closed form == change of basis A N=4"

    @pytest.mark.parametrize("check", ["relations", "all"])
    def test_verify_relations_need_two_sites(self, capsys, check):
        code = main(["verify", "--check", check, "--n", "1"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err == "error: need N >= 2\n"

    def test_identities_appA_checks_the_given_n(self, capsys, monkeypatch):
        from tbtl import identities

        seen = []
        monkeypatch.setattr(
            identities, "verify_tridiagonal_lemma", lambda N: seen.append(N) or True
        )
        code, out = run(capsys, "identities", "--lemma", "appA", "--n", "7")
        assert code == 0 and out == "PASS  appA\n"
        assert seen == [7]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--check", "relations", "--n", "3"],
            ["conjecture", "--check", "oeis", "--nmax", "3"],
            ["identities", "--lemma", "app0", "--draws", "5"],
        ],
    )
    def test_json_lines(self, capsys, argv):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(set(r) == {"check", "ok"} for r in records)
        assert all(r["ok"] is True for r in records)
        code, text = run(capsys, *argv)
        assert text.splitlines() == [
            f"{'AGREE' if argv[0] == 'conjecture' else 'PASS'}  {r['check']}" for r in records
        ]


def verify_choices():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    check = next(a for a in sub.choices["verify"]._actions if a.dest == "check")
    return [c for c in check.choices if c != "all"]


def test_verify_all_is_every_choice_in_order(capsys):
    # --check all runs exactly the rows of the single choices, in choice order,
    # and every choice selects a check for some family
    choices = verify_choices()
    selected = set()
    for base in BASES:
        code, everything = run(capsys, "verify", "--check", "all", *base, "--n", "3")
        assert code == 0
        joined = ""
        for choice in choices:
            code, out = run(capsys, "verify", "--check", choice, *base, "--n", "3")
            assert code in (0, 64), (base, choice)
            if code == 0:
                selected.add(choice)
            joined += out
        assert everything == joined, base
    assert selected == set(choices)


def test_verify_leaves_numpy_unloaded():
    # in a fresh interpreter, since this test process may have numpy loaded
    import os
    import subprocess
    import sys

    import tbtl

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tbtl.__file__)))
    code = (
        "import sys\n"
        "from tbtl.cli import main\n"
        "main(['verify', '--check', 'all', '--type', 'BI', '--m', '1', '--n', '4'])\n"
        "print('numpy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout
    assert done.stdout.endswith("PASS  numeric ground-state check N=4\nFalse\n")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["conjecture", "--nmax", "0"],
            ["conjecture", "--nmax", "-3"],
            ["identities", "--draws", "-1"],
            ["identities", "--n", "0", "--lemma", "appA"],
            ["table", "--nmax", "0"],
            ["verify", "--check", "relations", "--n", "0"],
        ],
    )
    def test_sizes_below_one(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""

    @pytest.mark.parametrize("verb", [["sum"], ["psi"], ["correlate", "--alpha", "1"]])
    def test_at_zero_denominator(self, capsys, verb):
        code = main([*verb, "--n", "2", "--at", "q=1/0"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err == "error: zero denominator in 'q=1/0'\n"

    @pytest.mark.parametrize("verb", ["enumerate", "psi", "sum", "correlate"])
    def test_seed_only_where_read(self, capsys, verb):
        # verify, spectrum and identities take --seed; these verbs draw nothing
        code = main([verb, "--n", "2", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert "unrecognized arguments: --seed 1" in captured.err

    def test_identities_unknown_lemma(self, capsys):
        code = main(["identities", "--lemma", "bogus"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert "invalid choice: 'bogus'" in captured.err

    @pytest.mark.parametrize(
        "sites",
        [
            ["--alpha", "5"],
            ["--alpha", "0"],
            ["--plus", "4"],
            ["--minus", "-1"],
            ["--alpha", "1", "--plus", "2,7"],
            ["--alpha", "2,2"],
            ["--plus", "2", "--minus", "2"],
        ],
    )
    def test_correlate_rejects_bad_sites_before_work(self, capsys, monkeypatch, sites):
        from tbtl import combinatorics

        def no_work(*_):
            raise AssertionError("work started before the sites were checked")

        monkeypatch.setattr(combinatorics, "correlation_closed", no_work)
        monkeypatch.setattr(combinatorics, "correlation_check", no_work)
        code = main(["correlate", "--n", "3", *sites])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err.startswith("error: ")
