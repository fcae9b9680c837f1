import json

import pytest

from tbtl.cli import main, parse_at


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

    @pytest.mark.parametrize("check", ["klactions", "xkl"])
    def test_verify_standard_needs_decorated_family(self, capsys, check):
        code = main(["verify", "--check", check, "--type", "standard", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 64 and "PASS" not in captured.out
        assert "needs a decorated family" in captured.err

    def test_verify_xkl_mismatch_fails(self, capsys, monkeypatch):
        from tbtl import kl_action

        rule = kl_action.apply_X_kl

        def perturbed(tag, D):
            out = rule(tag, D)
            if D.string == "+-":
                out["--"] = out["--"].scale(2)
            return out

        monkeypatch.setattr(kl_action, "apply_X_kl", perturbed)
        code, out = run(capsys, "verify", "--check", "xkl", "--type", "BIII", "--n", "2")
        assert code == 1
        assert out == "FAIL  X action == conjugated matrix: BIII N=2\n"


class TestUsageErrors:
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
