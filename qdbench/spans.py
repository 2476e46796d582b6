"""Spans around qdisent's layers, recorded from outside the package.

Each public function of a layer is replaced, at the module attribute
its caller resolves, by a wrapper that records a span: name, start,
end, parent span and item id, whether an exception passed through it,
and the layer's counts.  Spans stay in memory; ``layer_metrics`` turns
them into per-layer self time (the span minus its child spans) and
counts.  A wrapped entry point that no longer exists is reported as an
absent layer.
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter_ns

ROOT = "cli.main"

# span record fields
NAME, START, END, PARENT, ITEM, ERROR, COUNTS = range(7)


def _read_counts(sizes):
    def count(args, result, exc):
        path = args[0]
        size = sizes.get(path)
        return {"bytes": size if size is not None else os.path.getsize(path)}
    return count


def _parse_counts(args, result, exc):
    return {"cells": int(result[0].size)} if exc is None else None


def _render_counts(args, result, exc):
    # canonical text is ASCII (json.dumps escapes the rest): chars == bytes
    return {"bytes": len(result)} if exc is None else None


def _solve_counts(args, result, exc):
    if exc is None:
        return {"sweeps": result.iterations, "converged": int(result.converged)}
    best = getattr(exc, "best", None)
    return None if best is None else {"sweeps": best.iterations, "converged": 0}


def layer_table(sizes: dict):
    """(module, attribute, layer, counter) for every wrapped entry point."""
    read = _read_counts(sizes)
    return (
        ("qdisent.cli", "load_document", "stateio.read", read),
        ("qdisent.cli", "file_digest", "stateio.read", read),
        ("qdisent.cli", "doc_to_matrix", "stateio.parse", _parse_counts),
        ("qdisent.cli", "dumps_canonical", "stateio.render", _render_counts),
        ("qdisent.cli", "BipartiteState", "core.validate", None),
        ("qdisent.cli", "density_defects", "core.validate", None),
        ("qdisent.cli", "separability_verdict", "criteria.verdict", None),
        ("qdisent.criteria", "ppt_test", "criteria.ppt", None),
        ("qdisent.criteria", "reduction_criterion_test", "criteria.reduction", None),
        ("qdisent.criteria", "subadditivity_check", "criteria.entropy", None),
        ("qdisent.cli", "neumann_reduce", "reductions.neumann", None),
        ("qdisent.cli", "disentanglement_report", "correlated.report", None),
        ("qdisent.correlated", "fixed_point_solve", "correlated.solve", _solve_counts),
    )


LAYERS = ("stateio.read", "stateio.parse", "stateio.render", "core.validate",
          "criteria.verdict", "criteria.ppt", "criteria.reduction",
          "criteria.entropy", "reductions.neumann", "correlated.report",
          "correlated.solve", "cli.self")


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``uninstall`` restores them."""

    def __init__(self, sizes: dict):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.absent: list[str] = []
        self._table = layer_table(sizes)
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.item, False, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                rec[ERROR] = True
                raise
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
                if counter is not None:
                    rec[COUNTS] = counter(args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.absent = []
        for module, attr, layer, counter in self._table:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def call(self, item: int, fn, *args):
        """Run the root span of one item: ``fn(*args)`` under ``cli.main``."""
        self.item = item
        return self._wrap(ROOT, fn, None)(*args)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start_ns", "end_ns", "parent", "item", "error",
                     "counts"), rec))) + "\n")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    s = sorted(values)
    return float(s[min(len(s) - 1, int(q * len(s)))]) if s else 0.0


def layer_metrics(spans: list[list], items: int, passes: int) -> dict:
    """Per-layer self time per item (ms) and counts per corpus pass."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    agg = {layer: {"self_ns": 0, "calls": 0, "errors": 0} for layer in LAYERS}
    sweeps = []
    for i, rec in enumerate(spans):
        a = agg["cli.self" if rec[NAME] == ROOT else rec[NAME]]
        a["self_ns"] += rec[END] - rec[START] - child_ns[i]
        a["calls"] += 1
        a["errors"] += rec[ERROR]
        for key, val in (rec[COUNTS] or {}).items():
            a[key] = a.get(key, 0) + val
        if rec[NAME] == "correlated.solve" and rec[COUNTS]:
            sweeps.append(rec[COUNTS]["sweeps"])
    out = {}
    for layer, a in agg.items():
        out[f"{layer}.self_ms"] = (a["self_ns"] / items / 1e6, "ms")
        out[f"{layer}.calls"] = (a["calls"] / passes, "count")
        out[f"{layer}.errors"] = (a["errors"] / passes, "count")
    read, parse, render, solve = (agg[k] for k in (
        "stateio.read", "stateio.parse", "stateio.render", "correlated.solve"))
    out["stateio.read.bytes"] = (read.get("bytes", 0) / passes, "B")
    out["stateio.parse.cells"] = (parse.get("cells", 0) / passes, "count")
    out["stateio.parse.ns_per_cell"] = (
        parse["self_ns"] / parse["cells"] if parse.get("cells") else 0.0, "ns")
    out["stateio.render.bytes"] = (render.get("bytes", 0) / passes, "B")
    out["stateio.render.ns_per_byte"] = (
        render["self_ns"] / render["bytes"] if render.get("bytes") else 0.0, "ns")
    out["correlated.solve.sweeps"] = (solve.get("sweeps", 0) / passes, "count")
    out["correlated.solve.us_per_sweep"] = (
        solve["self_ns"] / solve["sweeps"] / 1e3 if solve.get("sweeps") else 0.0, "us")
    out["correlated.solve.converged_ratio"] = (
        solve.get("converged", 0) / solve["calls"] if solve["calls"] else 0.0, "ratio")
    out["correlated.solve.sweeps_p50"] = (quantile(sweeps, 0.5), "count")
    out["correlated.solve.sweeps_p90"] = (quantile(sweeps, 0.9), "count")
    out["correlated.solve.sweeps_max"] = (float(max(sweeps, default=0)), "count")
    return out
