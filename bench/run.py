"""Benchmark of tbtl verdict jobs, run cold through the command line.

Usage (from the root of a checkout):
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: one job at a time, each in a
fresh interpreter (bench/child.py) that imports the checkout's src/, so every
lru_cache starts cold, as it does for a CLI user.  Each job's output is
checked against references the benchmark keeps itself (bench/workloads.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
jobs run in S seconds, with times scaled by the machine speed that
calibrate.py measures between jobs (bench/README.md, Steadiness).  --trace 1
runs pairs of one plain and one traced job (bench/shim.py) with the same
input, requires identical output from both, and reports the per-layer
metrics; trace.overhead_s is traced minus plain verdict time.  Both modes
print each metric by name with its unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is nonzero, with no result line, when the run cannot be measured: no
src/tbtl in the checkout, tbtl imported from elsewhere, a cache warm before
the job, a traced name not found, traced output that differs from plain
output, or an assigned per-layer metric that reads zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from shim import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
CALIBRATE = BENCH / "calibrate.py"

MIN_JOBS = 3  # jobs per timed run, even when they outlast --seconds
SETUP_PER_JOB = 2  # set-up-only interpreters started after each job
CALIBRATIONS_PER_JOB = 6  # calibrate.py interpreters started after each job
# Median calibrate.py time on the reference machine (2-core Xeon VM at
# 2.0 GHz, Python 3.11.7).  Timed-run times are scaled by this over the run's
# own median, which removes the drift of a shared machine's speed.
REFERENCE_CALIBRATION_S = 0.058
RUN_LIMIT_S = 150  # a run's first jobs must not be expected to end after this
FN_FIELDS = ("calls", "total_s", "self_s")


class Unmeasurable(Exception):
    """The run cannot be measured; no result is printed."""


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed % 2**32)
    return env


def run_child(argv, hash_seed: int, trace: bool = False, required=(), timeout: float = 170):
    """Start one fresh interpreter and return its result dict.  A child that
    dies or times out returns {"crash": ...}; a fatal result raises."""
    spec = {"root": str(ROOT), "argv": argv, "trace": trace, "required": list(required)}
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT, env=child_env(hash_seed), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"job exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"child exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    if "fatal" in result:
        raise Unmeasurable(result["fatal"])
    return result


def setup_only(hs: int) -> dict:
    """Result of an interpreter that only imports tbtl.cli and builds the parser."""
    result = run_child(None, hs)
    if "crash" in result:
        raise Unmeasurable(f"set-up crashed: {result['crash']}")
    return result


def calibration_sample() -> float:
    proc = subprocess.run(
        [sys.executable, str(CALIBRATE)], cwd=ROOT, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(proc.stdout)


def score(workload, result) -> tuple[int, int]:
    """(attempted, failed) checks of one job.  A job that crashes or exits
    nonzero with no check failed fails every check."""
    attempted, failed = workload.check(result.get("stdout", ""))
    if not failed and ("crash" in result or result.get("exit") != 0):
        failed = attempted
    return attempted, failed


class Loop:
    """Closed loop of jobs over --seconds.  After the first ``min_jobs``, a
    job starts only if a job as long as the last one ends within --seconds."""

    def __init__(self, seconds: float, min_jobs: int):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.min_jobs = min_jobs
        self.jobs = 0
        self.last = self.longest = 0.0

    def more(self) -> bool:
        elapsed = time.perf_counter() - self.start
        if self.jobs < self.min_jobs:
            return elapsed + 2 * self.longest <= RUN_LIMIT_S
        return elapsed + self.last <= self.seconds

    def timeout(self) -> float:
        return max(10.0, 170 - (time.perf_counter() - self.start))

    def done(self, job_s: float) -> None:
        self.jobs += 1
        self.last = job_s
        self.longest = max(self.longest, job_s)


def hash_seed(seed: int, k: int) -> int:
    return seed * 7919 + k


def run_timed(workload, seed: int, seconds: float):
    setup, verdict, rss, calibration = [], [], [], []
    attempted = failed = 0
    loop = Loop(seconds, MIN_JOBS)
    while loop.more():
        k = loop.jobs
        t0 = time.perf_counter()
        result = run_child(workload.argv(seed + k), hash_seed(seed, k), timeout=loop.timeout())
        a, f = score(workload, result)
        attempted, failed = attempted + a, failed + f
        if "verdict_s" in result:
            verdict.append(result["verdict_s"])
            setup.append(result["setup_s"])
            rss.append(result["rss_kb"] / 1024)
        for j in range(SETUP_PER_JOB):
            setup.append(setup_only(hash_seed(seed, 1000 + SETUP_PER_JOB * k + j))["setup_s"])
        calibration += [calibration_sample() for _ in range(CALIBRATIONS_PER_JOB)]
        loop.done(time.perf_counter() - t0)
    if not verdict:
        raise Unmeasurable("every job crashed")
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    wall = {"verdict_s": verdict, "setup_s": setup}
    values = {name: statistics.median(v) * scale for name, v in wall.items()}
    values["peak_rss_mb"] = statistics.median(rss)
    values["check_pass_ratio"] = (attempted - failed) / attempted
    notes = {
        name: f"median of {len(v)} wall times {statistics.median(v)!r} s, "
        f"range {min(v):.4f}-{max(v):.4f}, times speed scale {scale!r}"
        for name, v in wall.items()
    }
    notes["peak_rss_mb"] = f"median of {len(rss)} jobs, ru_maxrss of the job's interpreter"
    notes["check_pass_ratio"] = f"{attempted - failed}/{attempted} checks passed"
    return values, notes, attempted, failed, loop.jobs


def layer_values(names, report: dict, overhead: float) -> dict:
    fns, caches = report["functions"], report["caches"]
    out = {}
    for name in names:
        prefix, field = name.rsplit(".", 1)
        if name == "trace.overhead_s":
            out[name] = overhead
        elif prefix in LAYERS and field == "self_s":
            out[name] = sum(s[2] for f, s in fns.items() if f.startswith(prefix + "."))
        elif field in FN_FIELDS and prefix in fns:
            out[name] = fns[prefix][FN_FIELDS.index(field)]
        elif field in ("hit_ratio", "lookups") and prefix in caches:
            hits, misses = caches[prefix]
            lookups = hits + misses
            out[name] = lookups if field == "lookups" else (hits / lookups if lookups else 0.0)
        else:
            raise Unmeasurable(f"per-layer metric {name} has no traced source")
    return out


def traced_names(names) -> list[str]:
    """Function and method names the per-layer metrics read."""
    return sorted({
        n.rsplit(".", 1)[0] for n in names
        if n.rsplit(".", 1)[0] not in LAYERS and not n.startswith("trace.")
    })


def run_traced(workload, seed: int, seconds: float, names: list[str]):
    required = traced_names(names)
    samples = {name: [] for name in names}
    attempted = failed = 0
    loop = Loop(seconds, 1)
    while loop.more():
        k = loop.jobs
        argv, hs = workload.argv(seed + k), hash_seed(seed, k)
        t0 = time.perf_counter()
        # Alternate which job of the pair runs first, so drift in machine
        # speed does not bias the overhead.
        pair = {}
        for trace in ((False, True) if k % 2 == 0 else (True, False)):
            pair[trace] = run_child(argv, hs, trace=trace, required=required,
                                    timeout=loop.timeout())
        plain, traced = pair[False], pair[True]
        loop.done(time.perf_counter() - t0)
        for result in (plain, traced):
            a, f = score(workload, result)
            attempted, failed = attempted + a, failed + f
        if "trace" not in traced or "verdict_s" not in plain:
            raise Unmeasurable(f"traced pair crashed: {plain.get('crash') or traced.get('crash')}")
        if (plain["exit"], plain["stdout"]) != (traced["exit"], traced["stdout"]):
            raise Unmeasurable("traced output differs from the untraced output")
        overhead = traced["verdict_s"] - plain["verdict_s"]
        for name, value in layer_values(names, traced["trace"], overhead).items():
            samples[name].append(value)
    values = {name: statistics.median(v) for name, v in samples.items()}
    zero = [name for name in workload.nonzero if not values.get(name)]
    if zero:
        raise Unmeasurable(f"assigned per-layer metrics read zero on {workload.name}: {zero}")
    notes = {name: f"median of {loop.jobs} traced jobs" for name in names}
    return values, notes, attempted, failed, loop.jobs


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tbtl").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tbtl" / "cli.py").is_file():
        print(f"error: no src/tbtl under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    try:
        # Untimed: writes bytecode and warms the file cache.
        tbtl_file = setup_only(hash_seed(args.seed, 9999))["tbtl_file"]
        if args.trace:
            names = [m["name"] for m in metrics]
            outcome = run_traced(workload, args.seed, args.seconds, names)
        else:
            outcome = run_timed(workload, args.seed, args.seconds)
        values, notes, attempted, failed, jobs = outcome
    except Unmeasurable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": jobs,
        "tbtl_file": tbtl_file,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("meta " + json.dumps(meta))
    for m in metrics:
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']} ({notes[m['name']]})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
