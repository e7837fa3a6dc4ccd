"""In-memory spans for the traced benchmark run.

A span marks one boundary the benchmark owns: the workload, one op, or one
call into a multivec layer.  Callbacks handed to ``multivec.validation``
(integrands, samplers, logpdfs) run 1e5-1e6 times per op, so they are not
spans: each (parent span, callback) pair keeps a count and a summed time.

Self time of a span is its duration minus the time its child spans and
callback aggregates cover.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class NullTracer:
    """Tracing off: spans cost one context manager, callbacks are not wrapped."""

    enabled = False

    @contextmanager
    def span(self, name: str, layer: str, op_id: int | None = None):
        yield

    def wrap(self, fn, name: str, layer: str):
        return fn


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.callbacks: dict[tuple[int, str], dict] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, op_id: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent]["op_id"]
        rec = {"id": len(self.spans), "name": name, "layer": layer, "parent": parent,
               "op_id": op_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        """Return ``fn`` counting calls and time under the span open at call time."""
        clock = time.perf_counter
        callbacks, stack, spans = self.callbacks, self._stack, self.spans

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                parent = stack[-1]
                agg = callbacks.get((parent, name))
                if agg is None:
                    agg = callbacks[(parent, name)] = {
                        "parent": parent, "name": name, "layer": layer,
                        "op_id": spans[parent]["op_id"], "count": 0, "total_s": 0.0,
                    }
                agg["count"] += 1
                agg["total_s"] += dt

        return traced

    # -- summaries ---------------------------------------------------------

    def duration(self, rec: dict) -> float:
        return rec["end"] - rec["start"]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                covered[rec["parent"]] += self.duration(rec)
        for agg in self.callbacks.values():
            covered[agg["parent"]] += agg["total_s"]
        return {rec["id"]: self.duration(rec) - covered[rec["id"]] for rec in self.spans}

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls (spans plus callback invocations) and self seconds."""
        out: dict[str, dict[str, float]] = {}
        selfs = self.self_times()
        for rec in self.spans:
            row = out.setdefault(rec["layer"], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[rec["id"]]
        for agg in self.callbacks.values():
            row = out.setdefault(agg["layer"], {"calls": 0, "self_s": 0.0})
            row["calls"] += agg["count"]
            row["self_s"] += agg["total_s"]
        return out

    def children(self, rec: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == rec["id"]]

    def callbacks_under(self, rec: dict) -> list[dict]:
        return [a for a in self.callbacks.values() if a["parent"] == rec["id"]]

    def dump(self, path) -> None:
        doc = {
            "spans": self.spans,
            "callbacks": list(self.callbacks.values()),
            "self_s": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
