"""Self-checks of the benchmark's own logic: the output references and the
tracing shim.  Run from the root of a checkout:

  python3 bench/selftest.py

The file name keeps it out of pytest's default collection (test_*.py), so
the repository's test suite neither collects nor runs it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import shim  # noqa: E402
from workloads import LEMMAS, PAPER_SUMS, WORKLOADS, check_pass_lines, check_spectrum, check_table  # noqa: E402


def check_references() -> None:
    table = json.dumps(PAPER_SUMS)
    assert check_table(table) == (63, 0)
    bad = dict(PAPER_SUMS, A=PAPER_SUMS["A"][:-1] + [29187])
    assert check_table(json.dumps(bad)) == (63, 1)
    assert check_table("") == (63, 63)

    good = "\n".join(f"PASS  {name}" for name in LEMMAS)
    assert check_pass_lines(good, LEMMAS) == (12, 0)
    assert check_pass_lines(good.replace("PASS  app2", "FAIL  app2"), LEMMAS) == (12, 1)
    assert check_pass_lines(good + "\nPASS  extra", LEMMAS) == (12, 1)
    assert check_pass_lines("", LEMMAS) == (12, 12)

    mult = {str(i): m for i, m in enumerate((1, 8, 28, 56, 70, 56, 28, 8, 1))}
    assert check_spectrum(json.dumps({"multiplicities": mult})) == (9, 0)
    assert check_spectrum(json.dumps({"multiplicities": dict(mult, **{"4": 69})})) == (9, 1)
    assert check_spectrum("") == (9, 9)

    assert run.score(WORKLOADS["identities"], {"exit": 1, "stdout": good}) == (12, 12)
    assert run.score(WORKLOADS["identities"], {"crash": "x"}) == (12, 12)
    one_fail = {"exit": 1, "stdout": good.replace("PASS  app9", "FAIL  app9")}
    assert run.score(WORKLOADS["identities"], one_fail) == (12, 1)


def check_shim() -> None:
    import tbtl.cli
    import tbtl.basis
    import tbtl.ground_state
    import tbtl.kl_action
    import tbtl.ring

    caches = {name for name, _ in shim.lru_caches()}
    assert {"tbtl.ring.qint", "tbtl.basis.build_diagram", "tbtl.coideal.x_matrix_kl"} <= caches

    original = tbtl.ring.exact_div
    tracer = shim.Tracer()
    try:
        tracer.install(["nowhere.missing"])
    except shim.TraceError as exc:
        assert "nowhere.missing" in str(exc)
    else:
        raise AssertionError("a missing listed binding must fail")
    # Every binding is patched, including the copies made by from-imports.
    assert tbtl.ring.exact_div is not original
    assert tbtl.ring.exact_div.__wrapped__ is original
    assert tbtl.kl_action.build_diagram is tbtl.basis.build_diagram
    assert tbtl.ground_state.build_diagram is tbtl.basis.build_diagram

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tbtl.cli.main(["sum", "--type", "A", "--n", "4"])
    assert (code, out.getvalue()) == (0, "43\n")
    report = tracer.report()
    fns = report["functions"]
    assert fns["combinatorics.sum_rule"][0] == 1
    assert fns["ground_state.psi_component"][0] == 16
    assert fns["ring.RingElem.evaluate"][0] > 0
    calls, total, self_s = fns["cli.main"]
    assert calls == 1 and 0 <= self_s <= total
    names = ["ring.self_s", "basis.build_diagram.lookups", "trace.overhead_s"]
    values = run.layer_values(names, report, 0.5)
    assert values["basis.build_diagram.lookups"] == 16
    assert values["trace.overhead_s"] == 0.5
    assert values["ring.self_s"] > 0

    # A binding the patcher cannot replace (a tuple entry) is an error.
    holder = sys.modules["tbtl.identities"]
    holder._bench_probe = (tbtl.ring.qshift.__wrapped__,)
    try:
        shim.Tracer._check_unpatched({id(holder._bench_probe[0]): (holder._bench_probe[0], None)})
    except shim.TraceError:
        pass
    else:
        raise AssertionError("an unpatched binding must fail")
    finally:
        del holder._bench_probe


def main() -> int:
    check_references()
    check_shim()
    print("bench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
