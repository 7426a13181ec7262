"""Timing wrappers around chebcm's public functions, for a traced pass.

`install` wraps every public function of the nine package modules (and
`CMType.induced_oracle`) and puts the wrapper in every chebcm namespace
that holds the original: `report` and `cli` import with
`from .zeta import ...`, so patching only `chebcm.zeta` would miss their
calls.  Nothing under `src/` is edited; the wrappers live only in the
traced interpreter.

Each call records a span (function, start, end, parent) in memory; run.py
writes them out after the run.  Spans nest on a per-thread stack,
so a span's self time is its duration minus the spans directly inside
it.  `busy_s` is inclusive and counts only a thread's outermost span of a
name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import types

from chebcm.zeta import CapExceededError

MODULES = (
    "algebra",
    "chebyshev",
    "unitgroups",
    "cyclotomic",
    "cmtypes",
    "curves",
    "zeta",
    "report",
    "cli",
)
METHODS = (("cmtypes", "CMType", "induced_oracle"),)


class _Stats:
    __slots__ = ("calls", "busy_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0


class Tracer:
    """In-memory span recorder plus the argument-level counters the
    per-layer metrics need (fields, curves, genus, degree)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stats: dict[str, _Stats] = {}
        self.keys: dict[str, list] = {}  # observed call keys, in call order
        self.peaks: dict[str, int] = {}
        self.elements = 0
        self.cap_refusals = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._observers = {
            "zeta.count_points": self._observe_count_points,
            "zeta.l_polynomial": self._observe_l_polynomial,
            "zeta.lpoly_is_irreducible": self._observe_irreducible,
            "curves.make_cd": self._observe_make_cd,
            "cyclotomic.minimal_polynomial": self._observe_minimal_polynomial,
        }

    def wrap(self, name: str, func):
        stats = self.stats.setdefault(name, _Stats())
        observer = self._observers.get(name)
        sig = inspect.signature(func) if observer else None
        spans, local, lock = self.spans, self._local, self._lock
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            outermost = all(f[2] != name for f in stack)
            with lock:
                index = len(spans)
                spans.append([name, 0, 0, stack[-1][0] if stack else -1])
                stats.calls += 1
            frame = [index, 0, name]  # span index, ns covered by child spans
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with lock:
                    span = spans[index]
                    span[1], span[2] = start, end
                    stats.self_ns += duration - frame[1]
                    if outermost:
                        stats.busy_ns += duration
                    if observer is not None:
                        observer(sig.bind(*args, **kwargs).arguments, result, exc)

        return wrapper

    # --- counters read from arguments and results --------------------------

    def _observe_count_points(self, args, result, exc):
        p, k = args["p"], args.get("k", 1)
        if isinstance(exc, CapExceededError):
            self.cap_refusals += 1
        if result is not None:
            self.elements += p**k
        self.keys.setdefault("field", []).append((p, k))
        self.keys.setdefault("curve_field", []).append((args["curve"], p, k))

    def _observe_l_polynomial(self, args, result, exc):
        self.keys.setdefault("l_polynomial", []).append((args["curve"], args["p"]))

    def _observe_irreducible(self, args, result, exc):
        self._peak("zeta.lpoly_is_irreducible.max_genus", args["lp"].genus)

    def _observe_make_cd(self, args, result, exc):
        self.keys.setdefault("make_cd", []).append(args["d"])

    def _observe_minimal_polynomial(self, args, result, exc):
        if result is not None:
            self._peak("cyclotomic.minimal_polynomial.max_degree", result.degree)

    def _peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def repeat_ratio(self, key: str) -> float:
        """Calls whose key was already seen in this pass, over all calls."""
        seen = self.keys.get(key, [])
        return (len(seen) - len(set(seen))) / len(seen) if seen else 0.0

    def span_table(self) -> dict:
        """The spans, compactly: rows of [name index, start_ns, end_ns,
        parent row or -1], with start_ns relative to the first span."""
        names = sorted(self.stats)
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[index[n], a - t0, b - t0, parent] for n, a, b, parent in self.spans]
        return {"names": names, "rows": rows}

    def function_table(self) -> dict:
        return {
            name: {
                "calls": s.calls,
                "busy_s": s.busy_ns / 1e9,
                "self_s": s.self_ns / 1e9,
            }
            for name, s in sorted(self.stats.items())
            if s.calls
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every chebcm module, in every chebcm
    namespace that holds them."""
    package = importlib.import_module("chebcm")
    modules = {m: importlib.import_module(f"chebcm.{m}") for m in MODULES}
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                # plain or lru_cache'd functions; ZZ and QQ are callable rings
                and (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"))
                and obj.__module__ == module.__name__
            ):
                wrappers[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(namespace, attr, wrapper)
    for short, cls_name, method in METHODS:
        cls = getattr(modules[short], cls_name)
        name = f"{short}.{cls_name}.{method}"
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
