"""Run one tbtl verdict job in this fresh interpreter; print its result as
one JSON line.

Usage: python3 bench/child.py '<spec>', where spec is a JSON object with
  root      the checkout whose src/ holds the tbtl under test
  argv      arguments for tbtl.cli.main, or null to time set-up only
  trace     wrap the tbtl layers with the tracing shim (bool)
  required  traced names the shim must find (list)

Set-up is the import of tbtl.cli plus building its parser.  Before the job
every tbtl lru_cache must be empty, so the verdict is timed cold, as a CLI
user runs it.  A result with a "fatal" key means the measurement itself is
invalid; a crash or a nonzero exit inside tbtl is reported as the job's
outcome.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import shim


def run(spec: dict) -> dict:
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    sys.path.insert(0, src)
    start = time.perf_counter()
    import tbtl.cli

    tbtl.cli.build_parser()
    result = {"setup_s": time.perf_counter() - start, "tbtl_file": tbtl.__file__}
    if os.path.realpath(tbtl.__file__) != os.path.join(src, "tbtl", "__init__.py"):
        result["fatal"] = f"tbtl resolves to {tbtl.__file__}, not under {src}"
        return result
    warm = [name for name, fn in shim.lru_caches() if fn.cache_info().currsize]
    if warm:
        result["fatal"] = f"lru caches not empty before the job: {warm}"
        return result
    if spec["argv"] is None:
        return result

    tracer = None
    if spec["trace"]:
        tracer = shim.Tracer()
        try:
            tracer.install(spec["required"])
        except shim.TraceError as exc:
            result["fatal"] = f"trace shim: {exc}"
            return result
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tbtl.cli.main(spec["argv"])
    except Exception:
        code = None
        result["crash"] = traceback.format_exc()
    result["verdict_s"] = time.perf_counter() - start
    result["exit"] = code
    result["stdout"] = out.getvalue()
    result["stderr"] = err.getvalue()[-4000:]
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def main() -> None:
    result = run(json.loads(sys.argv[1]))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
