"""Spans around the calls into each aspecteval module, kept in memory.

The traced run calls ``aspecteval.cli.main`` in-process.  Before it does,
:func:`instrument` replaces the public functions that ``cli`` (and
``measures``, and the benchmark's own verify loop) imported from the other
modules, and ``GroundTruth.judged``, with wrappers that open a span named
``<module>.<call>``.  Nothing in the package changes; the wrappers are
removed afterwards.

A span records name, start, end, parent and workload, plus the counters its
call produced.  Counting happens inside a ``trace.count`` span, so it is
charged to the tracing overhead and not to the caller.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

perf = time.perf_counter


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        # [name, start, end, parent index or -1, counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` returns the
        counters to attach to that span."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                with self.span("trace.count"):
                    self.spans[idx][4] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "workload": self.workload,
             **({"counts": c} if c else {})}
            for n, s, e, p, c in self.spans
        ]


@contextmanager
def instrument(tracer: Tracer, targets):
    """Replace ``module.attr`` for each (module, attr, span name, count) in
    ``targets`` with a traced wrapper; names a module lacks are skipped."""
    saved = []
    try:
        for module, attr, name, count in targets:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(original, name, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _zero_spread_pairs(matrix) -> int:
    scores = np.array([[matrix.score(r, t) for t in matrix.topic_ids] for r in matrix.run_tags])
    n = 0
    for i in range(len(scores)):
        d = scores[i] - scores[i + 1:]
        n += int(np.count_nonzero(d.std(axis=1, ddof=1) == 0.0))
    return n


COUNTS = {
    "schema.tuple_space": lambda a, k, r: {"schema.tuples": len(r)},
    "order.build": lambda a, k, r: {"order.classes": r.n_classes},
    "ingest.qrels": lambda a, k, r: {"ingest.corrections": r[1]},
    "ingest.runs": lambda a, k, r: {
        "ingest.run_lines": sum(len(es) for es in r.topics.values())
    },
    "measures.score_runs": lambda a, k, r: {
        "measures.cells": sum(len(m.run_tags) * len(m.topic_ids) for m in r.values())
    },
    "reports.render": lambda a, k, r: {"reports.bytes_out": len(r.encode())},
    "analysis.dp": lambda a, k, r: {
        "analysis.dp_pairs": r.pairs_total, "analysis.dp_zero_spread": _zero_spread_pairs(a[0]),
    },
    "analysis.tau": lambda a, k, r: {
        "analysis.tau_topics": len(r.per_topic), "analysis.tau_excluded": r.excluded,
    },
}

# cli's imported names -> span names
CLI_CALLS = {
    "parse_schema": "schema.parse",
    "build_tuple_space": "schema.tuple_space",
    "build_order": "order.build",
    "format_order_dump": "order.dump",
    "parse_qrels": "ingest.qrels",
    "join_aspect_qrels": "ingest.qrels",
    "parse_run": "ingest.runs",
    "score_runs": "measures.score_runs",
    "parse_scores": "reports.parse",
    "render_scores": "reports.render",
    "render_correlation": "reports.render",
    "render_dp": "reports.render",
    "render_zero_aspect": "reports.render",
    "render_quality_bands": "reports.render",
    "render_order_dump": "reports.render",
    "measure_correlation": "analysis.tau",
    "discriminative_power": "analysis.dp",
    "select_best_runs": "analysis.audit",
    "zero_aspect_at_k": "analysis.audit",
    "quality_bands": "analysis.audit",
}
# what score_runs and the verify loop call internally
INNER_CALLS = {
    "parse_schema": "schema.parse",
    "build_tuple_space": "schema.tuple_space",
    "build_order": "order.build",
    "assign_weights": "order.weights",
    "check_extends_partial_order": "order.check",
}


def targets(cli_module, inner_modules):
    out = [(cli_module, attr, name, COUNTS.get(name)) for attr, name in CLI_CALLS.items()]
    for module in inner_modules:
        out += [(module, attr, name, COUNTS.get(name)) for attr, name in INNER_CALLS.items()]
    return out


def span_cost(samples: int = 5, calls: int = 20000) -> float:
    """Median cost in seconds that one traced call adds to a plain call."""
    def noop():
        return None

    costs = []
    for _ in range(samples):
        tracer = Tracer("calibration")
        traced = tracer.wrap(noop, "noop")
        t0 = perf()
        for _ in range(calls):
            noop()
        plain = perf() - t0
        t0 = perf()
        for _ in range(calls):
            traced()
        costs.append(max(0.0, (perf() - t0 - plain) / calls))
    return statistics.median(costs)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [e - s for _, s, e, _, _ in spans]
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            own[parent] -= e - s
    return own


def roots(spans) -> list[int]:
    """Index of the root span of every span."""
    out = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out
