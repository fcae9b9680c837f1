import pytest

from tbtl import kl_action
from tbtl.algebra import generator_names, op_apply, op_mismatches, standard_operator
from tbtl.basis import (
    build_diagram,
    enumerate_strings,
    specialize,
    standard_to_kl,
    transition_matrix,
)
from tbtl.kl_action import (
    apply_e0_kl,
    apply_eN_kl,
    apply_ei_kl,
    coeff_c,
    crosscheck_vs_standard,
    kl_operator,
)
from tbtl.ring import RatioElem, RingElem, angle, dangle, qint, R_ONE

mono = RingElem.mono


def r(c):
    return RatioElem.from_ring(c)


class TestBulkRows:
    def test_arc_eigen(self):
        D = build_diagram("A", "-+")
        assert apply_ei_kl("A", D, 1) == {"-+": r(-qint(2))}

    def test_two_downs(self):
        assert apply_ei_kl("A", build_diagram("A", "--"), 1) == {}

    def test_two_ups(self):
        assert apply_ei_kl("A", build_diagram("A", "++"), 1) == {}

    def test_dashed_arc_killed(self):
        D = build_diagram("BI", "----", 1)
        assert D.dashed == ((2, 3),)
        assert apply_ei_kl("BI", D, 2) == {}

    def test_up_then_down(self):
        assert apply_ei_kl("A", build_diagram("A", "+-"), 1) == {"-+": R_ONE}

    def test_bii_eo_value(self):
        D = build_diagram("BII", "--")
        assert D.mark_map() == {1: "e", 2: "o"}
        assert apply_ei_kl("BII", D, 1) == {"-+": r(mono(1, -1, 1) + mono(1, 1, -1))}

    def test_bii_oe_value(self):
        D = build_diagram("BII", "----")
        assert D.mark_map() == {4: "o", 3: "e", 2: "o", 1: "e"}
        out = apply_ei_kl("BII", D, 2)
        assert out == {"--+-": r(-(mono(1, 0, 1) + mono(1, 0, -1)))}

    def test_biii_consecutive_circles(self):
        assert apply_ei_kl("BIII", build_diagram("BIII", "--"), 1) == {}

    def test_consecutive_labels(self):
        D = build_diagram("BI", "--", 3)
        assert D.label_map() == {1: 2, 2: 3}
        assert apply_ei_kl("BI", D, 1) == {}

    def test_star_label_pair(self):
        D = build_diagram("BI", "--", 2)
        assert D.star == 1 and D.label_map() == {2: 2}
        assert apply_ei_kl("BI", D, 1) == {}

    def test_down_star_pair(self):
        D = build_diagram("BI", "--", 1)
        assert D.unpaired_down == 1 and D.star == 2
        assert apply_ei_kl("BI", D, 1) == {"-+": R_ONE}

    def test_example_bulk_images(self):
        # nine-site example with M = 2
        b = "+--+---+-"
        D = build_diagram("BI", b, 2)
        assert apply_ei_kl("BI", D, 3) == {b: r(-qint(2))}
        assert apply_ei_kl("BI", D, 7) == {b: r(-qint(2))}
        assert apply_ei_kl("BI", D, 1) == {"-+-+---+-": R_ONE}
        assert apply_ei_kl("BI", D, 2) == {"+-+----+-": R_ONE}
        assert apply_ei_kl("BI", D, 5) == {"+--+-+-+-": R_ONE}
        assert apply_ei_kl("BI", D, 6) == {"+--+--+--": R_ONE}


class TestCascadeCoefficient:
    def test_clauses(self):
        assert coeff_c(2, 1) == RingElem.const(1)
        assert coeff_c(3, 1) == mono(1, -1)
        assert coeff_c(3, 2) == mono(1, -2)
        assert coeff_c(4, 2) == mono(1, -3) + mono(1, -1)


class TestBoundaryRows:
    def test_A_case1(self):
        out = apply_eN_kl("A", build_diagram("A", "++"))
        assert out == {"+-": R_ONE, "++": r(mono(-1, 0, -1))}

    def test_A_case2(self):
        out = apply_eN_kl("A", build_diagram("A", "--"))
        assert out == {"-+": R_ONE, "+-": r(mono(1, -1)), "--": r(mono(-1, 0, 1))}

    def test_A_arc(self):
        out = apply_eN_kl("A", build_diagram("A", "-+"))
        assert out["--"] == R_ONE
        assert out["-+"] == r(mono(-1, 0, -1))
        assert out["+-"] == r(mono(1, -1, 1) - mono(1, -1, -1))
        assert out["++"] == r(mono(-1, -1))

    def test_A_e0_arc(self):
        out = apply_e0_kl("A", build_diagram("A", "-+"))
        assert out["++"] == R_ONE
        assert out["-+"] == r(mono(-1, 0, 0, -1))
        assert out["+-"] == r(mono(1, -1, 0, 1) - mono(1, -1, 0, -1))
        assert out["--"] == r(mono(-1, -1))

    def test_BI_up(self):
        assert apply_eN_kl("BI", build_diagram("BI", "+", 2)) == {"-": R_ONE}

    def test_BI_labelM(self):
        for M in (1, 2, 3):
            out = apply_eN_kl("BI", build_diagram("BI", "-", M))
            assert out == {"-": r(-angle(M))}

    def test_BI_arc(self):
        assert apply_eN_kl("BI", build_diagram("BI", "-+", 1)) == {
            "--": R_ONE,
            "+-": R_ONE,
        }
        assert apply_eN_kl("BI", build_diagram("BI", "-+", 3)) == {
            "--": R_ONE,
            "+-": r(angle(2)),
        }

    def test_BI_example_e13(self):
        # thirteen-site example with M = 2 and exactly three output terms
        b = "+--+---+--" + "-++"
        assert len(b) == 13
        D = build_diagram("BI", b, 2)
        assert D.arcs == ((3, 4), (7, 8), (10, 13), (11, 12))
        assert D.star == 6 and D.label_map() == {9: 2} and D.dashed == ((2, 5),)
        out = apply_eN_kl("BI", D)
        assert out["+--+---+---+-"] == R_ONE  # arc opened
        assert out["+--+---++--+-"] == R_ONE  # smallest label flipped up
        assert out["+--+---+-+-+-"] == r(angle(1))
        assert len(out) == 3

    def test_BII_rules(self):
        assert apply_eN_kl("BII", build_diagram("BII", "+")) == {"-": R_ONE}
        loop = r(-(mono(1, 0, 1) + mono(1, 0, -1)))
        assert apply_eN_kl("BII", build_diagram("BII", "-")) == {"-": loop}
        assert apply_eN_kl("BII", build_diagram("BII", "-+")) == {"--": R_ONE}

    def test_BIII_rules(self):
        assert apply_eN_kl("BIII", build_diagram("BIII", "+")) == {"-": R_ONE}
        loop = r(-(mono(1, 0, 1) + mono(1, 0, -1)))
        assert apply_eN_kl("BIII", build_diagram("BIII", "-")) == {"-": loop}
        assert apply_eN_kl("BIII", build_diagram("BIII", "-+")) == {
            "--": R_ONE,
            "+-": r(dangle(1)),
        }

    def test_BIII_example_e14(self):
        b = "-++--+--+---++"
        assert len(b) == 14
        D = build_diagram("BIII", b)
        assert D.arcs == ((1, 2), (5, 6), (8, 9), (11, 14), (12, 13))
        assert D.circle_map() == {4: 3, 7: 2, 10: 1}
        out = apply_eN_kl("BIII", D)
        assert out["-++--+--+---+-"] == R_ONE
        assert out["-++--+--+-+-+-"] == r(dangle(1))
        assert out["-++--+--++--+-"] == r(dangle(2))
        assert out["-++--++-+---+-"] == r(dangle(3))
        assert out["-+++-+--+---+-"] == r(dangle(4))
        assert len(out) == 5


class TestOracle:
    @pytest.mark.parametrize(
        "tag,M", [("A", None), ("BI", 1), ("BI", 2), ("BI", 3), ("BII", None), ("BIII", None)]
    )
    def test_exhaustive(self, tag, M):
        for N in range(1, 6):
            for gen in generator_names(N):
                ok, mismatches = crosscheck_vs_standard(tag, N, gen, M)
                assert ok, (tag, M, N, gen, mismatches[:3])

    def test_perturbed_rule_is_located(self, monkeypatch):
        from tbtl import kl_action

        rule = kl_action.apply_ei_kl

        def perturbed(tag, D, i):
            out = rule(tag, D, i)
            if D.string == "+--" and i == 1:
                out["-+-"] = out["-+-"] * RatioElem.from_int(2)
            return out

        monkeypatch.setattr(kl_action, "apply_ei_kl", perturbed)
        assert crosscheck_vs_standard("A", 3, "e1") == (False, [("+--", "-+-")])
        assert crosscheck_vs_standard("A", 3, "e2")[0]

    @staticmethod
    def conjugation_mismatches(tag, N, gen, M):
        """The mismatches of T^{-1} E T against K, every column
        back-substituted."""
        E = {s: specialize(col, tag, M) for s, col in standard_operator(N, gen).items()}
        T = transition_matrix(tag, N, M)
        conjugated = {
            s: standard_to_kl(op_apply(E, {s2: r(c) for s2, c in T[s].items()}), tag, N, M)
            for s in enumerate_strings(N)
        }
        return list(op_mismatches(conjugated, kl_operator(tag, N, gen, M)))

    @pytest.mark.parametrize("tag,M", [("A", None), ("BI", 1), ("BI", 2), ("BII", None), ("BIII", None)])
    @pytest.mark.parametrize("gen", ["e1", "eN", "e0", "X"])
    @pytest.mark.parametrize("kind", ["scale", "spread"])
    def test_perturbed_rule_matches_conjugation(self, monkeypatch, tag, M, gen, kind):
        # "scale" doubles one coefficient of one column; "spread" adds 1 at
        # every row of that column, so its KL difference spans all 2^N rows
        rule = kl_action.apply_generator_kl
        for N in (2, 3, 4):
            K = kl_operator(tag, N, gen, M)
            column = [s for s in enumerate_strings(N) if K[s]][-1]

            def perturbed(tag_, D, gen_):
                out = rule(tag_, D, gen_)
                if gen_ == gen and D.string == column:
                    if kind == "scale":
                        row = next(iter(out))
                        out[row] = out[row] * RatioElem.from_int(2)
                    else:
                        for row in enumerate_strings(N):
                            out[row] = out.get(row, RatioElem.from_int(0)) + R_ONE
                            if out[row].is_zero():
                                del out[row]
                return out

            monkeypatch.setattr(kl_action, "apply_generator_kl", perturbed)
            expected = self.conjugation_mismatches(tag, N, gen, M)
            assert len(expected) == (1 if kind == "scale" else 2**N)
            assert crosscheck_vs_standard(tag, N, gen, M) == (False, expected)
            monkeypatch.setattr(kl_action, "apply_generator_kl", rule)

    def test_ei_squared_diagrammatic(self):
        # conjugation preserves the loop relation; re-check it directly on
        # the diagram action
        loop = r(-(mono(1, 1) + mono(1, -1)))
        for tag, M in [("A", None), ("BI", 2), ("BII", None), ("BIII", None)]:
            N = 5
            for i in range(1, N):
                for s in enumerate_strings(N):
                    once = apply_ei_kl(tag, build_diagram(tag, s, M), i)
                    twice: dict = {}
                    for s2, c in once.items():
                        for s3, c2 in apply_ei_kl(tag, build_diagram(tag, s2, M), i).items():
                            cur = twice.get(s3)
                            add = c * c2
                            twice[s3] = add if cur is None else cur + add
                    for s3, c in twice.items():
                        want = loop * once.get(s3, RatioElem.from_int(0))
                        assert c == want, (tag, s, i)

    def test_typeA_reflection(self):
        # e_0 = reflect . e_N . reflect with the boundary parameters swapped
        from tbtl.basis import reflect
        from tbtl.kl_action import _swap_Q_Q0

        for N in (2, 3, 4, 5):
            for s in enumerate_strings(N):
                direct = apply_e0_kl("A", build_diagram("A", s))
                mirrored = {
                    reflect(s2): _swap_Q_Q0(c)
                    for s2, c in apply_eN_kl("A", build_diagram("A", reflect(s))).items()
                }
                assert set(direct) == set(mirrored)
                for k in direct:
                    assert direct[k] == mirrored[k]
