"""Outside-in tracing of the tbtl layers.

The tracer wraps every public function of each tbtl module, plus the few
methods named in ``METHODS``, in a timing wrapper.  ``from .ring import
exact_div`` copies the binding into the importing module, so the wrapper is
patched into every tbtl module, and every module-level dict, that binds the
original; a binding left unpatched is an error, not a silent miss.

Spans are folded into per-function totals as they close (calls, total time,
self time) instead of being kept one by one, because the hot ring methods
run hundreds of thousands of times in one job.  Self time is a span's
duration minus the time of the wrapped spans nested in it.  A generator
function's span covers only the creation of the generator.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "ring",
    "basis",
    "algebra",
    "kl_action",
    "coideal",
    "ground_state",
    "combinatorics",
    "identities",
    "cli",
)

# (layer, class, method, traced name)
METHODS = (
    ("ring", "RingElem", "__mul__", "ring.RingElem.mul"),
    ("ring", "RingElem", "__hash__", "ring.RingElem.hash"),
    ("ring", "RingElem", "evaluate", "ring.RingElem.evaluate"),
    ("ring", "RatioElem", "__add__", "ring.RatioElem.add"),
    ("ring", "RatioElem", "__eq__", "ring.RatioElem.eq"),
    ("ground_state", "FactorizedScalar", "evaluate",
     "ground_state.FactorizedScalar.evaluate"),
)


class TraceError(RuntimeError):
    """The shim could not trace what it was asked to."""


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def tbtl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "tbtl" or name.startswith("tbtl.")]


def lru_caches():
    """(name, function) for every lru_cache bound at module level in tbtl."""
    found = {}
    for mod in tbtl_modules():
        for obj in vars(mod).values():
            if isinstance(obj, functools._lru_cache_wrapper):
                found[id(obj)] = (f"{obj.__module__}.{obj.__qualname__}", obj)
    return list(found.values())


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.caches: dict[str, tuple] = {}  # name -> (lru function, [hits, misses] cleared)
        self._stack: list[float] = []  # nested span time of each open span

    def wrap(self, name: str, fn):
        stat = self.stats[name] = [0, 0.0, 0.0]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += span
                stat[0] += 1
                stat[1] += span
                stat[2] += span - nested

        functools.update_wrapper(traced, fn)
        if isinstance(fn, functools._lru_cache_wrapper):
            cleared = [0, 0]

            def cache_clear():
                info = fn.cache_info()
                cleared[0] += info.hits
                cleared[1] += info.misses
                fn.cache_clear()

            traced.cache_info = fn.cache_info
            traced.cache_clear = cache_clear
            self.caches[name] = (fn, cleared)
        return traced

    def install(self, required=()):
        """Wrap and patch; raise TraceError if a name in ``required`` is not
        traced or if any binding of a wrapped function is left unpatched."""
        mods = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"tbtl.{layer}")
            if mod is None:
                raise TraceError(f"module tbtl.{layer} is not imported")
            mods[layer] = mod
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and _is_function(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                raise TraceError(f"tbtl.{layer}.{cls_name}.{meth} not found")
            setattr(cls, meth, self.wrap(name, fn))

        def swap(obj):
            hit = wrapped.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else obj

        for mod in tbtl_modules():
            for attr, obj in list(vars(mod).items()):
                new = swap(obj)
                if new is not obj:
                    setattr(mod, attr, new)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        obj[key] = swap(value)
        self._check_unpatched(wrapped)
        missing = [name for name in required if name not in self.stats]
        if missing:
            raise TraceError(f"listed bindings not found: {missing}")

    @staticmethod
    def _check_unpatched(wrapped):
        originals = {id(orig) for orig, _ in wrapped.values()}
        for mod in tbtl_modules():
            for attr, obj in vars(mod).items():
                items = [obj]
                if isinstance(obj, (list, tuple)):
                    items += obj
                elif isinstance(obj, dict):
                    items += obj.values()
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    items += vars(obj).values()
                for item in items:
                    if id(item) in originals:
                        raise TraceError(f"{mod.__name__}.{attr} still binds an untraced function")

    def report(self) -> dict:
        caches = {}
        for name, (fn, cleared) in self.caches.items():
            info = fn.cache_info()
            caches[name] = [cleared[0] + info.hits, cleared[1] + info.misses]
        return {"functions": self.stats, "caches": caches}
