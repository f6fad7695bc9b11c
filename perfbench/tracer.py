"""Spans and counters recorded around the library's public functions.

The tracer replaces a function on the object the caller looks it up on (a
module global or a class attribute) with a wrapper, and puts the original back
on ``restore()``.  Spans keep their parent, so a layer's self time is its
duration minus its child spans; durations are thread CPU time.  Counts are
kept per phase call (one encode, one decode), so counts per operation can be
read off exactly.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.phases: dict[str, list[Counter]] = {}
        self._stack: list[list] = []  # [span id, nanoseconds covered by children]
        self._counts = Counter()
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def phase(self, name: str, op: int) -> None:
        """Start counting for one call of ``name`` (encode, decode, ...) of
        cycle ``op``; -1 is set-up."""
        self._op = op
        self._counts = Counter()
        self.phases.setdefault(name, []).append(self._counts)

    def _span(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": len(tracer.spans), "parent": tracer._stack[-1][0] if tracer._stack else None,
                   "op": tracer._op, "name": name}
            tracer.spans.append(rec)
            tracer._counts[name] += 1
            frame = [rec["id"], 0]
            tracer._stack.append(frame)
            start = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.thread_time_ns() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                rec.update(start_ns=start, dur_ns=dur, self_ns=dur - frame[1])
            if on_result is not None:
                on_result(rec, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def span(self, owner, attr, label, on_result=None) -> None:
        self._patch(owner, attr, lambda fn: self._span(label, fn, on_result))

    def count(self, owner, attr, label) -> None:
        self._patch(owner, attr, lambda fn: self._counter(label, fn))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def values(self, name: str, key: str = "dur_ns", setup: bool | None = False) -> list[int]:
        """``key`` of the spans called ``name``: those of the measured cycles,
        with ``setup`` those of the set-up (op -1, warm-up included), with
        None all of them."""
        return [s[key] for s in self.spans
                if s["name"] == name and key in s and setup in (None, s["op"] < 0)]

    def median_span(self, name: str, scale: float, key: str = "dur_ns",
                    setup: bool | None = False) -> float | None:
        vals = self.values(name, key, setup)
        return statistics.median(vals) / scale if vals else None

    def median_count(self, phase: str, name: str) -> float | None:
        calls = self.phases.get(phase, [])
        return statistics.median(c[name] for c in calls) if calls else None

    def child_count(self, child: str, parent: str) -> int | None:
        """Spans ``child`` opened directly by a ``parent`` span of the cycles."""
        ids = {s["id"] for s in self.spans if s["name"] == parent and s["op"] >= 0}
        if not ids:
            return None
        return sum(1 for s in self.spans if s["name"] == child and s["parent"] in ids)

    def as_json(self) -> dict:
        totals = Counter()
        for calls in self.phases.values():
            for c in calls:
                totals.update(c)
        return {"missing": self.missing, "counters": dict(totals),
                "phase_counters": {p: [dict(c) for c in cs] for p, cs in self.phases.items()},
                "spans": self.spans}


def install_spans(tracer: Tracer) -> None:
    """Wrap every layer's public functions where their callers look them up."""
    cli, double, field, framework, graphs, triple = (
        importlib.import_module(f"graphcodes.{m}")
        for m in ("cli", "double", "field", "framework", "graphs", "triple"))
    tracer.span(field.Matrix, "rank", "field.matrix_rank")
    tracer.span(field.Matrix, "solve", "field.matrix_solve")

    for mod in (double, triple):
        tracer.span(mod, "failed_nodes_of", "graphs.failed_nodes_of")
    graph = graphs.LabeledGraph
    tracer.span(graph, "erase_nodes", "graphs.erase_nodes")
    tracer.span(graph, "from_string", "graphs.from_string")
    tracer.span(graph, "to_text", "graphs.to_text",
                on_result=lambda rec, text: rec.__setitem__("bytes", len(text.encode())))

    for mod in (framework, double, triple):
        tracer.span(mod, "survivor_syndrome", "framework.survivor_syndrome")
        tracer.span(mod, "oracle_decode", "framework.oracle_decode")
    for mod in (framework, cli):
        tracer.span(mod, "metrics", "framework.metrics")

    tracer.span(double, "double_parity_code", "double.parity_code")
    tracer.span(double, "encode_double", "double.encode")
    tracer.span(double, "decode_double", "double.decode")
    tracer.span(double, "zigzag_schedule", "double.zigzag_schedule")

    tracer.span(triple, "triple_code", "triple.code")
    tracer.span(triple, "encode_triple", "triple.encode")
    tracer.span(triple, "decode_triple", "triple.decode")

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "make_parser", "cli.make_parser")
    tracer.span(cli, "build_spec", "cli.build_spec")
    tracer.span(cli, "parse_info_file", "cli.parse_info")


def install_field_counters(tracer: Tracer) -> None:
    """Count calls of the GF scalar and array arithmetic methods.

    This runs in a pass of its own: an encode at double n=101 makes about
    15,000 scalar calls, and counting them would swamp the span timings.
    """
    gf = importlib.import_module("graphcodes.field").GF
    for attr in ("add", "neg", "sub", "mul", "inv", "div", "pow"):
        tracer.count(gf, attr, "field.scalar_op")
    for attr in ("add_arr", "neg_arr", "sub_arr", "mul_arr", "dot", "matmul"):
        tracer.count(gf, attr, "field.array_op")


US, MS = 1e3, 1e6


def _span(name, scale, key="dur_ns", setup=False):
    return lambda t: t.median_span(name, scale, key, setup)


# per-layer metric -> (unit, pass it is read from, reader)
LAYER_METRICS = {
    "framework.survivor_syndrome_us": ("us", "spans", _span("framework.survivor_syndrome", US)),
    "framework.syndrome_calls_per_decode": (
        "count", "spans", lambda t: t.median_count("decode", "framework.survivor_syndrome")),
    "framework.oracle_decode_us": ("us", "spans", _span("framework.oracle_decode", US)),
    "framework.metrics_ms": ("ms", "spans", _span("framework.metrics", MS, setup=None)),
    "double.oracle_fallbacks": (
        "count", "spans", lambda t: t.child_count("framework.oracle_decode", "double.decode")),
    "field.matrix_rank_ms": ("ms", "spans", _span("field.matrix_rank", MS, setup=None)),
    "field.matrix_solve_us": ("us", "spans", _span("field.matrix_solve", US)),
    "field.scalar_ops_per_encode": ("count", "counts", lambda t: t.median_count("encode", "field.scalar_op")),
    "field.scalar_ops_per_decode": ("count", "counts", lambda t: t.median_count("decode", "field.scalar_op")),
    "field.array_ops_per_decode": ("count", "counts", lambda t: t.median_count("decode", "field.array_op")),
    "graphs.failed_nodes_of_us": ("us", "spans", _span("graphs.failed_nodes_of", US)),
    "graphs.erase_nodes_us": ("us", "spans", _span("graphs.erase_nodes", US)),
    "graphs.from_string_us": ("us", "spans", _span("graphs.from_string", US)),
    "graphs.to_text_us": ("us", "spans", _span("graphs.to_text", US)),
    "graphs.graph_file_bytes": ("bytes", "spans", _span("graphs.to_text", 1.0, key="bytes")),
    "double.parity_code_ms": ("ms", "spans", _span("double.parity_code", MS, setup=None)),
    "double.encode_us": ("us", "spans", _span("double.encode", US)),
    "double.decode_self_us": ("us", "spans", _span("double.decode", US, key="self_ns")),
    "double.zigzag_schedule_us": ("us", "spans", _span("double.zigzag_schedule", US)),
    "triple.code_ms": ("ms", "spans", _span("triple.code", MS, setup=None)),
    "triple.encode_us": ("us", "spans", _span("triple.encode", US)),
    "triple.decode_self_us": ("us", "spans", _span("triple.decode", US, key="self_ns")),
    "cli.make_parser_us": ("us", "spans", _span("cli.make_parser", US)),
    "cli.build_spec_ms": ("ms", "spans", _span("cli.build_spec", MS)),
    "cli.parse_info_us": ("us", "spans", _span("cli.parse_info", US)),
}
