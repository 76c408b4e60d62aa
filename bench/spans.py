"""In-memory spans around the calls the benchmark makes into anchorkit's layers.

A span has a name, a start, an end, the index of the span that was open when
it began (its parent) and a trace id. Spans of one frame share a trace id, as
do spans of one CLI command. Self time is a span's duration minus the part of
it that its child spans cover.

``instrument`` wraps the public functions each layer calls into by replacing
the module attributes that the caller looks up, and restores them on exit.
Nothing in the package itself is changed.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    trace: int


class Tracer:
    """Collects spans and counts in memory; nothing is written until asked."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._trace = 0

    def new_trace(self) -> None:
        self._trace += 1

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._trace))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextmanager
    def span(self, name: str, new_trace: bool = False):
        if new_trace:
            self.new_trace()
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out[span.name]
            entry["total_s"] += span.end - span.start
            entry["self_s"] += own
            entry["calls"] += 1
        return dict(out)

    def write(self, handle, phase: str) -> None:
        """One JSON line per span: phase, name, start, end, parent, trace."""
        import json

        for s in self.spans:
            handle.write(json.dumps([phase, s.name, s.start, s.end, s.parent, s.trace]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counts[f"{name}.errors"] += 1
            raise
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer.counts, args, result)
        return result

    return wrapper


def _count_cells(counts, args, result) -> None:
    values = result.values
    counts["cost_cells"] += values.size
    counts["cells_below_tau"] += int((values < args[2].tau).sum())


def _count_assigned(counts, args, result) -> None:
    counts["pairs_assigned"] += len(result)


def _count_kept(counts, args, result) -> None:
    counts["pairs_kept"] += len(result.matches)


def _count_step(counts, args, result) -> None:
    model, outcomes = result
    counts["tracks"] += len(model.anchors) + len(model.candidates)
    counts["candidates"] += len(model.candidates)
    for outcome in outcomes:
        counts[f"outcome.{outcome.reason}"] += 1


def _count_bytes(counts, args, result) -> None:
    counts["world_bytes"] += os.path.getsize(args[0])


@contextmanager
def instrument(tracer: Tracer, layers: set[str] | None = None):
    """Route the layer calls the benchmark exercises through ``tracer``: all of
    them, or those whose layer (the first part of the span name) is in ``layers``."""
    from anchorkit import alignment, cli, heuristic, io_jsonl, pipeline, tracker

    targets = [
        (tracker, "compensate_camera_motion", "alignment.compensate_camera_motion", None),
        (alignment, "compensate_camera_motion", "alignment.compensate_camera_motion", None),
        (tracker, "align", "alignment.align", _count_kept),
        (alignment, "build_cost_matrix", "alignment.build_cost_matrix", _count_cells),
        (alignment, "solve_assignment", "alignment.solve_assignment", _count_assigned),
        (alignment, "linear_sum_assignment", "alignment.linear_sum_assignment", None),
        (tracker, "apply_action", "hypothesis.apply_action", None),
        (tracker, "classify_unmatched", "hypothesis.classify_unmatched", None),
        (tracker, "propagate_attachments", "hypothesis.propagate_attachments", None),
        (tracker, "update_confidence", "hypothesis.update_confidence", None),
        (tracker, "validate_world_model", "core.validate_world_model", None),
        (tracker, "step", "tracker.step", _count_step),
        (tracker, "query", "tracker.query", None),
        (tracker, "predict_target", "tracker.predict_target", None),
        (io_jsonl, "read_detection_stream", "io_jsonl.read_detection_stream", None),
        (cli, "read_detection_stream", "io_jsonl.read_detection_stream", None),
        (cli, "load_scenario", "io_jsonl.load_scenario", None),
        (cli, "write_world_stream", "io_jsonl.write_world_stream", _count_bytes),
        (cli, "write_predictions", "io_jsonl.write_predictions", None),
        (cli, "write_detection_stream", "io_jsonl.write_detection_stream", None),
        (cli, "write_truth_stream", "io_jsonl.write_truth_stream", None),
        (cli, "generate", "simulate.generate", None),
        (pipeline, "run_engine_stream", "pipeline.run_engine_stream", None),
        (pipeline, "run_heuristic_stream", "pipeline.run_heuristic_stream", None),
        (pipeline, "score_stream", "metrics.score_stream", None),
        (heuristic.HeuristicTracker, "step", "heuristic.step", None),
    ]
    if layers is not None:
        targets = [t for t in targets if t[2].split(".")[0] in layers]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, after in targets:
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), after))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
