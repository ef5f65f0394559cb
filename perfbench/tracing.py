"""Spans around calls into the program, recorded from the benchmark's side.

``Tracer.install`` replaces, in each caller module, every binding of a public
function of the six program modules with a timing wrapper, so a span is
recorded at the name through which the caller looks the function up
(``bounds`` imports ``truncate`` and ``rate_R`` by name, ``cli`` calls
``bd.best_lower``).  The callers are ``cli``, ``bounds``, ``simulate``,
``montecarlo`` and the benchmark's own workload module; calls inside
``ratefun`` and ``distributions`` are not wrapped, so spans of those two
modules never have children.  A ``best_lower`` call makes about 40,000 such
leaf calls, so they are folded into their parent span as a count and a total
time instead of being kept one by one.  Every other span keeps its name,
start, end and parent.  Spans live in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
import types
from collections import defaultdict

MODULES = ("cli", "bounds", "ratefun", "distributions", "simulate", "montecarlo")
LEAF_MODULES = ("ratefun", "distributions")
PACKAGE = "srdbounds"


class Tracer:
    """Records spans ``[name, parent, start, end, note, error]``.

    ``observers`` maps a span name to ``f(arguments, result)``, whose value
    (a number) is kept as the span's note; ``error`` is the name of an
    exception the call raised.
    """

    def __init__(self, observers: dict | None = None):
        self.spans: list[list] = []
        self.leaves: dict[tuple, list] = {}
        self._observers = observers or {}
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def install(self, callers) -> None:
        for mod in callers:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(PACKAGE + ".") or home not in MODULES:
                    continue
                name = f"{home}.{obj.__name__}"
                wrap = self._wrap_leaf if home in LEAF_MODULES else self._wrap_span
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrap(obj, name))

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _parent(self, tid: int, stack: list[int]):
        if stack:
            return stack[-1]
        if tid == self._main:
            return None
        # A pool worker's first span belongs to whatever the main thread is
        # running while it waits on the pool.
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def _wrap_span(self, fn, name):
        spans, stacks, lock = self.spans, self._stacks, self._lock
        observe = self._observers.get(name)
        signature = inspect.signature(fn) if observe else None
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = get_ident()
            stack = stacks.setdefault(tid, [])
            span = [name, self._parent(tid, stack), 0.0, 0.0, None, None]
            with lock:
                idx = len(spans)
                spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _wrap_leaf(self, fn, name):
        leaves, stacks = self.leaves, self._stacks
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tid = get_ident()
                key = (self._parent(tid, stacks.get(tid, ())), name)
                # Each thread folds into its own parent span, so no two
                # threads update the same entry.
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, elapsed]
                else:
                    agg[0] += 1
                    agg[1] += elapsed

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, notes summed and
        errors counted; per module: self seconds."""
        by_name = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "note": 0, "errors": 0})
        children = defaultdict(list)
        leaf_time = defaultdict(float)
        for _, parent, start, end, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        for (parent, name), (count, total) in self.leaves.items():
            leaf_time[parent] += total
            entry = by_name[name]
            entry["calls"] += count
            entry["incl_s"] += total
            entry["self_s"] += total
        for idx, (name, _, start, end, note, error) in enumerate(self.spans):
            entry = by_name[name]
            entry["calls"] += 1
            entry["incl_s"] += end - start
            covered = _union_length(children[idx], start, end) + leaf_time[idx]
            entry["self_s"] += max(0.0, end - start - covered)
            entry["note"] += note or 0
            entry["errors"] += error is not None
        modules = {mod: 0.0 for mod in MODULES}
        for name, entry in by_name.items():
            modules[name.partition(".")[0]] += entry["self_s"]
        return {"functions": dict(by_name), "modules": modules}

    def write(self, path, meta: dict) -> None:
        leaves = [[parent, name, count, total] for (parent, name), (count, total) in self.leaves.items()]
        with open(path, "w") as fh:
            json.dump({**meta, "span_fields": ["name", "parent", "start", "end", "note", "error"],
                       "spans": self.spans, "leaf_fields": ["parent", "name", "calls", "total_s"],
                       "leaves": leaves}, fh)


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]; child spans
    from pool threads overlap one another."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(summary: dict, overhead_s: float) -> dict:
    """The per-layer metrics, as ``name -> (value, unit)``."""
    fn = summary["functions"]
    mods = summary["modules"]

    def get(name, key):
        return fn[name][key] if name in fn else 0

    def per_call_ms(name):
        calls = get(name, "calls")
        return 1e3 * get(name, "incl_s") / calls if calls else 0.0

    ml_s = get("simulate.exhaustive_ml", "incl_s")
    rs_calls = get("simulate.rate_sharing_recover", "calls")
    implicit = ("bounds.p4_iid", "bounds.p5_gaussian", "bounds.p6_entropy")
    return {
        "cli.self_ms": (1e3 * mods["cli"], "ms"),
        "bounds.self_ms": (1e3 * mods["bounds"], "ms"),
        "bounds.best_lower.ms": (per_call_ms("bounds.best_lower"), "ms"),
        "bounds.evaluate_bound.calls": (get("bounds.evaluate_bound", "calls"), "count"),
        "bounds.t4_genie_iid.calls": (get("bounds.t4_genie_iid", "calls"), "count"),
        "bounds.t4_genie_iid.self_ms": (1e3 * get("bounds.t4_genie_iid", "self_s"), "ms"),
        "bounds.t2_genie.self_ms": (1e3 * get("bounds.t2_genie", "self_s"), "ms"),
        "bounds.implicit.self_ms": (1e3 * sum(get(n, "self_s") for n in implicit), "ms"),
        "bounds.alpha_curve.ms": (per_call_ms("bounds.alpha_curve"), "ms"),
        "ratefun.self_ms": (1e3 * mods["ratefun"], "ms"),
        "ratefun.rate_R.calls": (get("ratefun.rate_R", "calls"), "count"),
        "ratefun.info_G.calls": (get("ratefun.info_G", "calls"), "count"),
        "ratefun.info_V.calls": (get("ratefun.info_V", "calls"), "count"),
        "distributions.self_ms": (1e3 * mods["distributions"], "ms"),
        "distributions.truncate.calls": (get("distributions.truncate", "calls"), "count"),
        "distributions.truncate.self_ms": (1e3 * get("distributions.truncate", "self_s"), "ms"),
        "distributions.truncate_oracle.self_ms": (1e3 * get("distributions.truncate_oracle", "self_s"), "ms"),
        "distributions.sample_values.self_ms": (1e3 * get("distributions.sample_values", "self_s"), "ms"),
        "simulate.self_ms": (1e3 * mods["simulate"], "ms"),
        "simulate.exhaustive_ml.calls": (get("simulate.exhaustive_ml", "calls"), "count"),
        "simulate.exhaustive_ml.self_ms": (1e3 * get("simulate.exhaustive_ml", "self_s"), "ms"),
        "simulate.supports_per_s": (get("simulate.exhaustive_ml", "note") / ml_s if ml_s else 0.0, "1/s"),
        "simulate.run_experiment.self_ms": (1e3 * get("simulate.run_experiment", "self_s"), "ms"),
        "simulate.rate_sharing_recover.calls": (rs_calls, "count"),
        "simulate.rate_sharing_recover.self_ms": (1e3 * get("simulate.rate_sharing_recover", "self_s"), "ms"),
        "simulate.rate_sharing.declared": (
            get("simulate.rate_sharing_recover", "errors") / rs_calls if rs_calls else 0.0, "ratio"),
        "montecarlo.self_ms": (1e3 * mods["montecarlo"], "ms"),
        "montecarlo.covering_bracket.self_ms": (1e3 * get("montecarlo.covering_bracket", "self_s"), "ms"),
        "montecarlo.mp_logdet.self_ms": (1e3 * get("montecarlo.mp_logdet", "self_s"), "ms"),
        "montecarlo.mp_logdet.rejected": (get("montecarlo.mp_logdet", "note"), "count"),
        "montecarlo.det_power.self_ms": (1e3 * get("montecarlo.det_power", "self_s"), "ms"),
        "montecarlo.rank_deficiency.self_ms": (1e3 * get("montecarlo.rank_deficiency", "self_s"), "ms"),
        "montecarlo.power_ratio_scan.self_ms": (1e3 * get("montecarlo.power_ratio_scan", "self_s"), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }
