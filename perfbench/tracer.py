"""Spans around calls into each module's public functions.

The benchmark wraps the functions listed in ``WRAPPED`` from outside the
package: each wrapper records a span (function, start, end, parent span,
repeat flag) in memory, and the spans are turned into per-layer metrics
when the run ends.  Only calls made while an op is open are recorded.

Per-element methods (``Algebra.product``, ``Matrix.apply``,
``SparseRref.add_row``) are deliberately not wrapped: they run millions of
times per op, and a Python wrapper on each call would distort the very
numbers it is meant to attribute.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("exactlin", "core", "derivations", "sl2", "cli")

WRAPPED = {
    "core": ("load_algebra_json", "leibniz_check", "squares_ideal",
             "quotient_algebra", "solvable_radical", "validate_levi",
             "is_simple_certified", "simple_summands", "centroid"),
    "derivations": ("derivation_algebra", "outer_report",
                    "inner_derivation_span", "split_all", "split_derivation",
                    "ideal_endo_blocks", "raising_map_report"),
    "sl2": ("check_sl2_triple", "weight_decomposition",
            "highest_weight_vectors", "irreducible_decomposition_sl2",
            "pair_structure_report"),
    "exactlin": ("kernel_of_constraints", "solve", "nullspace", "charpoly",
                 "rational_eigen", "Subspace.from_vectors"),
    "cli": ("main",),
}

# Functions whose calls are checked for arguments repeating an earlier call
# in the same op: the cached ones, plus the decomposition that
# is_simple_certified recomputes.
REPEAT_TRACKED = ("core.leibniz_check", "core.squares_ideal",
                  "core.solvable_radical", "derivations.derivation_algebra",
                  "sl2.irreducible_decomposition_sl2")

FUNCTIONS = tuple(f"{layer}.{fn}" for layer in LAYERS for fn in WRAPPED[layer])


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent, repeat)`` where ``parent`` is the
    index of the enclosing span in the same op, or -1.  ``ops`` holds one
    span list per op.  ``start_s`` accumulates, over traced CLI
    subprocesses, wall time outside the ``cli.main`` span.
    """

    def __init__(self):
        self.ops: list[list[tuple]] = []
        self.start_s = 0.0
        self._spans: list | None = None
        self._stack: list[int] = []
        self._seen: set = set()

    def begin_op(self) -> None:
        self._spans = []
        self._stack = []
        self._seen = set()

    def end_op(self) -> None:
        self.ops.append(self._spans)
        self._spans = None
        self._seen = set()

    def wrap(self, name: str, fn):
        track = name in REPEAT_TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            repeat = False
            if track:
                key = (name, args, tuple(sorted(kwargs.items())))
                repeat = key in self._seen
                self._seen.add(key)
            idx = len(spans)
            parent = self._stack[-1] if self._stack else -1
            spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                spans[idx] = (name, start, end, parent, repeat)

        return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every listed function; returns what ``uninstall`` restores.

    A plain function is replaced under its name in every loaded
    ``leibnizalg`` module that holds it (including its own module, whose
    globals serve internal calls such as rational_eigen -> charpoly); a
    static method is replaced on its class.
    """
    importlib.import_module("leibnizalg.cli")
    modules = [m for name, m in list(sys.modules.items())
               if name == "leibnizalg" or name.startswith("leibnizalg.")]
    undo = []
    for layer in LAYERS:
        home = sys.modules[f"leibnizalg.{layer}"]
        for fn in WRAPPED[layer]:
            name = f"{layer}.{fn}"
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth,
                        staticmethod(tracer.wrap(name, original.__func__)))
                undo.append((cls, meth, original))
                continue
            original = getattr(home, fn)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                if getattr(module, fn, None) is original:
                    setattr(module, fn, wrapper)
                    undo.append((module, fn, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_stats(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per-function calls, busy, self and repeat totals for one op.

    busy counts only spans with no enclosing span of the same function, so
    a function that re-enters itself is not counted twice; self time is a
    span's duration minus the part its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "repeat_calls": 0})
    for idx, (name, start, end, parent, repeat) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["repeat_calls"] += int(repeat)
        row["self_s"] += (end - start) - covered(children[idx], start, end)
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            row["busy_s"] += end - start
    return out


def layer_metrics(tracer: Tracer) -> dict[str, dict[str, object]]:
    """Per-layer metrics summed over the traced ops, every name present."""
    totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                     "repeat_calls": 0} for name in FUNCTIONS}
    for spans in tracer.ops:
        for name, row in span_stats(spans).items():
            for key, value in row.items():
                totals[name][key] += value
    metrics: dict[str, dict[str, object]] = {}
    for name in FUNCTIONS:
        row = totals[name]
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{name}.busy_s"] = {"value": row["busy_s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
        if name in REPEAT_TRACKED:
            metrics[f"{name}.repeat_calls"] = {"value": row["repeat_calls"],
                                               "unit": "count"}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {
            "value": sum(totals[name]["self_s"] for name in FUNCTIONS
                         if name.startswith(layer + ".")),
            "unit": "s"}
    metrics["cli.start_s"] = {"value": tracer.start_s, "unit": "s"}
    return metrics
