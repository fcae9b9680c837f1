"""Every function and method the traced benchmark names still exists.

``bench/shim.py`` wraps the public functions of the tbtl modules and the
methods in its ``METHODS``; the per-layer metrics that ``bench/workloads.py``
requires and ``BENCHMARK.json`` declares are read from those wrappers.  A
renamed or deleted function would otherwise break only a traced benchmark
run.  The bench files are run from source with ``runpy``, so nothing is
imported from or written into ``bench/``.
"""

import functools
import importlib
import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIM = runpy.run_path(str(ROOT / "bench" / "shim.py"))
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WORKLOADS"]
DECLARED = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
CACHE_STATS = ("hit_ratio", "lookups")


def metric_names():
    names = set(DECLARED)
    for workload in WORKLOADS.values():
        names.update(workload.nonzero)
    return sorted(names)


def unresolved(name: str):
    """Why the traced target of a metric name is missing, or None."""
    target, stat = name.rsplit(".", 1)
    if target in SHIM["LAYERS"] or target == "trace":
        return None  # a layer total or the tracer's own overhead
    methods = {traced: (layer, cls, meth) for layer, cls, meth, traced in SHIM["METHODS"]}
    if target in methods:
        return None if stat not in CACHE_STATS else "a method has no cache"
    layer, _, attr = target.partition(".")
    if layer not in SHIM["LAYERS"] or attr.startswith("_") or "." in attr:
        return "not a public function of a traced layer"
    mod = importlib.import_module(f"tbtl.{layer}")
    obj = vars(mod).get(attr)
    if obj is None or not SHIM["_is_function"](obj) or obj.__module__ != mod.__name__:
        return f"tbtl.{layer} defines no function {attr}"
    if stat in CACHE_STATS and not isinstance(obj, functools._lru_cache_wrapper):
        return "not an lru_cache"
    return None


def test_metric_names_resolve():
    names = metric_names()
    assert len(names) > 50
    missing = {n: why for n in names if (why := unresolved(n))}
    assert not missing


def test_shim_methods_exist():
    for layer, cls_name, meth, _ in SHIM["METHODS"]:
        cls = getattr(importlib.import_module(f"tbtl.{layer}"), cls_name, None)
        assert cls is not None and meth in vars(cls), (layer, cls_name, meth)
