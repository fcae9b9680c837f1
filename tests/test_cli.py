import argparse
import json
from dataclasses import replace

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

    @pytest.mark.parametrize("strict, want", [([], 2), (["--strict-conjectures"], 1)])
    def test_conjecture_disagreement_exit(self, capsys, monkeypatch, strict, want):
        from tbtl import combinatorics

        monkeypatch.setattr(combinatorics, "check_table1", lambda n: {("A", 1): (False, 1, 2)})
        code = main(["conjecture", "--check", "table1", "--nmax", "3", *strict])
        captured = capsys.readouterr()
        assert code == want and captured.err == ""
        assert captured.out == "DISAGREE  Table of component sums, N <= 3\n"

    @pytest.mark.parametrize("strict", [[], ["--strict-conjectures"]])
    def test_conjecture_checker_that_raises_exits_1(self, capsys, monkeypatch, strict):
        # a checker reports disagreement by its result, so a raise is a fault
        from tbtl import combinatorics

        def broken(n):
            raise KeyError("boom")

        monkeypatch.setattr(combinatorics, "check_table1", broken)
        code = main(["conjecture", "--check", "table1", "--nmax", "3", *strict])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert captured.out == "DISAGREE  Table of component sums, N <= 3  (KeyError: 'boom')\n"

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
                out["--"] = out["--"] * RatioElem.rational(2)
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
            return [(i, lam + RatioElem.rational(1)), *rest]

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
            X["+++"]["+++"] = X["+++"]["+++"] + RatioElem.rational(1)
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
            return replace(f, q_exp=f.q_exp + 1) if D.string == "+-+-" else f

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

    @pytest.mark.parametrize("tag", ["A", "BII", "BIII"])
    def test_verify_groundstate_fails_on_rescaled_psi(self, capsys, monkeypatch, tag):
        # q Psi is still an eigenvector with positive components; only the
        # change-of-basis row, which compares for equality, sees the factor
        from tbtl import ground_state

        closed_form = ground_state.psi_component

        def rescaled(tag, D):
            f = closed_form(tag, D)
            return replace(f, q_exp=f.q_exp + 1)

        monkeypatch.setattr(ground_state, "psi_component", rescaled)
        code, out = run(capsys, "verify", "--check", "groundstate", "--type", tag, "--n", "4")
        assert code == 1
        assert out == (
            f"PASS  X Psi = lambda Psi {tag} N=4\n"
            f"PASS  structural component claims {tag} N=4\n"
            f"FAIL  closed form == change of basis {tag} N=4\n"
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
        # the message names the first entry where the two constructions differ
        error = "AssertionError: the two constructions of X disagree at column ---, row --+"
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
        from tbtl.ring import qint

        closed_form = ground_state.psi_component

        def over_five(tag, D):
            f = closed_form(tag, D)
            return replace(f, den=f.den + (qint(5),)) if D.string == "++--" else f

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

    def test_identities_zero_denominator_is_a_fail(self, capsys, monkeypatch):
        # a zero atom on both sides would absorb the + 1 that makes them differ
        from tbtl import identities

        app2 = identities.LEMMAS["app2"]

        def over_zero(ms, x):
            lhs, rhs = app2(ms, x)
            zero = identities._ratio(0, [], [0])
            return lhs + identities.R_ONE + zero, rhs + zero

        monkeypatch.setitem(identities.LEMMAS, "app2", over_zero)
        code = main(["identities", "--lemma", "app2", "--draws", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert captured.out == "FAIL  app2  (ZeroDenominator: a denominator atom of (1) is 0)\n"

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


class TestVerifyMutants:
    """One seeded fault per verify row, in an input the row reads: each turns
    its row to FAIL with exit 1 and nothing on stderr."""

    @staticmethod
    def clear_caches():
        # every cache a fault passes through
        from tbtl import algebra, basis

        for cache in (algebra.generator_matrix, basis.transition_matrix, basis.build_diagram):
            cache.cache_clear()

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        # each test starts and ends with those caches empty
        self.clear_caches()
        yield
        self.clear_caches()

    @staticmethod
    def assert_fails(capsys, label, *argv):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert f"FAIL  {label}" in captured.out.splitlines()

    def test_relations_fail_on_flipped_eN_sign(self, capsys, monkeypatch):
        from tbtl import algebra
        from tbtl.ring import RatioElem, RingElem

        monkeypatch.setitem(algebra._E_N, ("+", "+"), RatioElem(RingElem.mono(1, 0, -1)))
        self.assert_fails(capsys, "defining relations N=3", "--check", "relations", "--n", "3")

    def test_pauli_fails_on_flipped_bulk_sign(self, capsys, monkeypatch):
        from tbtl import algebra
        from tbtl.ring import RatioElem, RingElem

        monkeypatch.setitem(algebra._E_BULK, ("+-", "+-"), RatioElem(RingElem.mono(1, -1)))
        self.assert_fails(capsys, "spin-chain form of H(2B) N=3", "--check", "pauli", "--n", "3")

    def test_commutant_fails_on_flipped_bulk_sign(self, capsys, monkeypatch):
        from tbtl import algebra
        from tbtl.ring import RatioElem

        monkeypatch.setitem(algebra._E_BULK, ("-+", "+-"), RatioElem.rational(-1))
        self.assert_fails(capsys, "[e_g, X] = 0 N=3", "--check", "commutant", "--n", "3")

    @staticmethod
    def perturb(monkeypatch, N, gen, col, row):
        """generator_matrix(N, gen) with the entry at (row, col) set to 2."""
        from tbtl import algebra
        from tbtl.ring import RatioElem

        build = algebra.generator_matrix

        def perturbed(n, g):
            E = build(n, g)
            if (n, g) == (N, gen):
                E = {c: dict(column) for c, column in E.items()}
                E[col][row] = RatioElem.rational(2)
            return E

        monkeypatch.setattr(algebra, "generator_matrix", perturbed)

    def test_relations_above_base_fail_on_perturbed_column(self, capsys, monkeypatch):
        # N = 10 is decided from N = 3; only the locality premise reads e5 at N = 10
        self.perturb(monkeypatch, 10, "e5", "++++-+++++", "++++-+++++")  # -q there
        self.assert_fails(capsys, "defining relations N=10", "--check", "relations", "--n", "10")

    def test_commutant_above_base_fails_on_perturbed_X_column(self, capsys, monkeypatch):
        # the flip of site 1 has weight 1; only the product-form premise reads X at N = 8
        self.perturb(monkeypatch, 8, "X", "++++++++", "-+++++++")
        self.assert_fails(capsys, "[e_g, X] = 0 N=8", "--check", "commutant", "--n", "8")

    def test_relations_and_commutant_above_base_fail_on_flipped_bulk_sign(
        self, capsys, monkeypatch
    ):
        from tbtl import algebra
        from tbtl.ring import RatioElem

        monkeypatch.setitem(algebra._E_BULK, ("-+", "+-"), RatioElem.rational(-1))
        self.assert_fails(capsys, "defining relations N=8", "--check", "relations", "--n", "8")
        self.assert_fails(capsys, "[e_g, X] = 0 N=8", "--check", "commutant", "--n", "8")

    def test_klbasis_fails_on_wrong_arc_vector(self, capsys, monkeypatch):
        from tbtl import basis
        from tbtl.ring import ONE, RingElem

        block_vector = basis.block_vector

        def wrong_arc(block):
            if block[0] == "arc":
                return [("-+", ONE), ("+-", RingElem.mono(-1, 1))]  # -q for -1/q
            return block_vector(block)

        monkeypatch.setattr(basis, "block_vector", wrong_arc)
        self.assert_fails(
            capsys, "KL triangularity/coefficient classes A N=3",
            "--check", "klbasis", "--type", "A", "--n", "3",
        )

    def test_klbasis_fails_on_a_denominator_in_T(self, capsys, monkeypatch):
        # -q^-2 / [2]: its numerator is in Gamma_-, but a coefficient with a
        # denominator atom is not a Laurent polynomial
        from tbtl import basis
        from tbtl.ring import RatioElem, qint

        build = basis.transition_matrix

        def perturbed(tag, N, M=None):
            T = build(tag, N, M)
            if N == 4:
                T = {s: dict(col) for s, col in T.items()}
                T["--++"]["++--"] = RatioElem(T["--++"]["++--"].num, (qint(2),))
            return T

        monkeypatch.setattr(basis, "transition_matrix", perturbed)
        self.assert_fails(
            capsys, "KL triangularity/coefficient classes A N=4", "--check", "klbasis", "--n", "4"
        )

    def test_index_histogram_fails_on_dropped_unpaired_down(self, capsys, monkeypatch):
        from tbtl import basis, coideal

        def dropped(tag, s, M=None):
            return replace(basis.build_diagram(tag, s, M), unpaired_down=None)

        monkeypatch.setattr(coideal, "build_diagram", dropped)
        self.assert_fails(
            capsys, "index histogram BI N=3 M=1",
            "--check", "eigen", "--type", "BI", "--m", "1", "--n", "3",
        )

    def test_rows_fail_on_wrong_circle_vector(self, capsys, monkeypatch):
        """Circle k as v_- - q^k/Q v_+ for q^{k-1}/Q, in the basis and in the
        diagram rules alike.  The e_0 and e_i rows still pass: they prepend
        and join the block vectors that the basis holds, and that holds for
        any decoration counted from the right.  The e_N and X rules and the
        closed-form ground state keep the paper's coefficients, so their
        rows fail."""
        from tbtl import basis, kl_action
        from tbtl.ring import RingElem

        down_block_alpha = basis.down_block_alpha

        def wrong_circle(kind):
            if kind[0] == "circle":
                return RingElem.mono(1, kind[1], -1)
            return down_block_alpha(kind)

        monkeypatch.setattr(basis, "down_block_alpha", wrong_circle)
        monkeypatch.setattr(kl_action, "down_block_alpha", wrong_circle)
        code = main(["verify", "--check", "all", "--type", "BIII", "--n", "4"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        lines = captured.out.splitlines()
        for label in (
            "diagram action == conjugated matrix: BIII eN N=4",
            "X action == conjugated matrix: BIII N=4",
            "closed form == change of basis BIII N=4",
            "e_g Psi = 0 (e_0 at the integrable point) BIII N=4",
        ):
            assert f"FAIL  {label}" in lines
        for gen in ("e1", "e2", "e3", "e0"):
            assert f"PASS  diagram action == conjugated matrix: BIII {gen} N=4" in lines

    def test_rows_fail_on_wrong_circle_vector_after_a_warm_run(self, capsys, monkeypatch):
        """A run with the true rule first fills every cache; cleared as
        between two tests, they must hold no value of the true rule, so the
        wrong circle vector gives the same rows as from cold caches.  A cache
        that clear_caches misses and that holds a value built from the
        circle vector would keep the true rule, and a row that passes from
        cold caches would fail against the wrong basis."""
        assert main(["verify", "--check", "all", "--type", "BIII", "--n", "4"]) == 0
        capsys.readouterr()
        self.clear_caches()
        self.test_rows_fail_on_wrong_circle_vector(capsys, monkeypatch)

    @pytest.mark.parametrize("tag", ["BII", "BIII"])
    @pytest.mark.parametrize("fault", ["across the diagonal", "diagonal", "other eigenvalue"])
    def test_triangular_spectrum_fails_on_moved_or_changed_entry(
        self, capsys, monkeypatch, tag, fault
    ):
        from tbtl import coideal
        from tbtl.basis import enumerate_strings
        from tbtl.ring import R_ONE

        X = {col: dict(column) for col, column in coideal.x_matrix_kl(tag, 3).items()}
        order = enumerate_strings(3)
        if fault == "diagonal":
            X[order[0]][order[0]] = X[order[0]].get(order[0], R_ONE) + R_ONE
        elif fault == "other eigenvalue":
            # still a claimed eigenvalue, so only the multiplicities tell
            diag = X[order[0]][order[0]]
            X[order[0]][order[0]] = next(
                lam for _, lam in coideal.candidate_eigenvalues(tag, 3, None) if lam != diag
            )
        else:
            # the first off-diagonal entry, moved to the mirror place across
            # the diagonal, which a triangular X leaves empty
            col, row = next((c, r) for c in order for r in X[c] if r != c)
            assert col not in X[row]
            X[row][col] = X[col].pop(row)
        monkeypatch.setattr(coideal, "x_matrix_kl", lambda tag_, N, M=None: X)
        self.assert_fails(
            capsys, f"triangular spectrum {tag} N=3", "--check", "eigen", "--type", tag, "--n", "3"
        )


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

    @pytest.mark.parametrize("at", ["q=1e3", "Q=2E-1", "q=1e999999999"])
    @pytest.mark.parametrize("verb", [["sum"], ["psi"], ["correlate", "--alpha", "1"]])
    def test_at_exponent_notation(self, capsys, verb, at):
        # Fraction expands 1e<k> as 10**k; the value is refused before it is parsed
        code = main([*verb, "--n", "2", "--at", at])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err == f"error: exponent notation in {at!r}; use q=1,Q=2/3,Q0=1\n"

    @pytest.mark.parametrize("verb", [["sum"], ["psi"], ["correlate", "--alpha", "1"]])
    def test_at_zero_coordinate(self, capsys, verb):
        code = main([*verb, "--n", "2", "--at", "q=0"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err == "error: spec point values must be nonzero\n"

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
            ["--alpha", "x"],
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


class TestInternalErrors:
    """An exception that is not a UsageError is a fault of the program: one
    line on stderr, exit 1, never the usage code 64."""

    @pytest.mark.parametrize("verb", ["psi", "sum"])
    def test_component_fault_is_internal(self, capsys, monkeypatch, verb):
        from tbtl import ground_state

        def broken(*_, **__):
            raise ValueError("nonpositive quantum integer [0] in a component")

        monkeypatch.setattr(ground_state, "_component", broken)
        code = main([verb, "--type", "A", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "error: internal: ValueError: nonpositive quantum integer [0] in a component\n"
        )

    def test_spectrum_without_a_point_is_internal(self, capsys, monkeypatch):
        from tbtl import coideal

        def no_point(*_, **__):
            raise RuntimeError("no generic sample point found")

        monkeypatch.setattr(coideal, "eigen_multiplicities", no_point)
        code = main(["spectrum", "--type", "A", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: internal: RuntimeError: no generic sample point found\n"
