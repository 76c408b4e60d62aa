"""Scoring of predicted target trajectories: intersection over union and
center distance, bucketed by per-frame subtask label and aggregated across
videos."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Mapping, Sequence

from .core import Box, EngineError, FrameInput, box_corners

# The task: localise the one object of this type, each frame labelled with a subtask.
TARGET_TYPE = "snitch"
SUBTASKS = ("visible", "occluded", "contained", "carried")
OVERALL = "overall"
BUCKETS = SUBTASKS + (OVERALL,)


class EvalError(EngineError):
    """Invalid scoring input."""


def iou(box_a: Box, box_b: Box) -> float:
    """Intersection area over union area; 1 iff the boxes coincide."""
    ax1, ay1, ax2, ay2 = box_corners(box_a)
    bx1, by1, bx2, by2 = box_corners(box_b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def l2_center(pred: Box | None, truth: Box) -> float:
    """Center distance in pixels; a missing prediction counts as the origin,
    so the result is the norm of the true center."""
    tx, ty = truth[0]
    if pred is None:
        return math.hypot(tx, ty)
    px, py = pred[0]
    return math.hypot(px - tx, py - ty)


@dataclass(frozen=True)
class Scenario:
    """One video to score: the detection stream the trackers read, the
    subtask label of each frame and, for each frame, the true objects as
    ``(name, type, box)`` in image coordinates (one truth-file line)."""

    inputs: tuple[FrameInput, ...]
    labels: tuple[str, ...]
    objects: tuple[tuple[tuple[str, str, Box], ...], ...]

    def target_box(self, frame: int) -> Box:
        for _, object_type, box in self.objects[frame]:
            if object_type == TARGET_TYPE:
                return box
        raise EvalError(f"no object of type {TARGET_TYPE!r} in truth frame {frame}")

    def first_detection_frame(self) -> int | None:
        for f, frame in enumerate(self.inputs):
            if any(p.attributes.object_type == TARGET_TYPE for p in frame.percepts):
                return f
        return None


@dataclass(frozen=True)
class VideoScores:
    """Per-video bucket means. ``scored`` is False when the target was never
    detected, in which case the video is excluded from aggregation."""

    scored: bool
    first_frame: int | None = None
    mean_iou: Mapping[str, float] = field(default_factory=dict)
    mean_l2: Mapping[str, float] = field(default_factory=dict)
    frame_counts: Mapping[str, int] = field(default_factory=dict)


def score_stream(predictions: Sequence[Box | None], scenario: Scenario) -> VideoScores:
    """Score one video against its scenario.

    Frames before the target's first appearance in the detection stream are
    excluded. Each scored frame contributes to its ground-truth subtask
    bucket and to the overall bucket. Missing predictions score IoU 0 and
    the origin-distance rule for the center metric.
    """
    labels = scenario.labels
    if len(predictions) != len(labels):
        raise EvalError(
            f"prediction stream has {len(predictions)} frames, scenario has {len(labels)}"
        )
    first = scenario.first_detection_frame()
    if first is None:
        return VideoScores(scored=False)

    sums_iou: dict[str, float] = {}
    sums_l2: dict[str, float] = {}
    counts: dict[str, int] = {}
    for f in range(first, len(labels)):
        truth = scenario.target_box(f)
        pred = predictions[f]
        frame_iou = iou(pred, truth) if pred is not None else 0.0
        frame_l2 = l2_center(pred, truth)
        label = labels[f]
        if label not in SUBTASKS:
            raise EvalError(f"unknown subtask label {label!r} at frame {f}")
        for bucket in (label, OVERALL):
            sums_iou[bucket] = sums_iou.get(bucket, 0.0) + frame_iou
            sums_l2[bucket] = sums_l2.get(bucket, 0.0) + frame_l2
            counts[bucket] = counts.get(bucket, 0) + 1

    return VideoScores(
        scored=True,
        first_frame=first,
        mean_iou={b: sums_iou[b] / counts[b] for b in counts},
        mean_l2={b: sums_l2[b] / counts[b] for b in counts},
        frame_counts=dict(counts),
    )


@dataclass(frozen=True)
class BucketStats:
    subtask: str
    mean_iou: float
    sem_iou: float
    mean_l2: float
    sem_l2: float
    n_videos: int


def _mean_sem(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def aggregate(videos: Sequence[VideoScores]) -> tuple[list[BucketStats], int]:
    """Across-video means with standard error (sample stddev / sqrt(n videos)).

    Videos whose target was never detected are excluded; their count is
    returned alongside the table. Buckets with no contributing video are
    omitted.
    """
    excluded = sum(1 for v in videos if not v.scored)
    rows: list[BucketStats] = []
    for bucket in BUCKETS:
        ious = [v.mean_iou[bucket] for v in videos if v.scored and bucket in v.mean_iou]
        l2s = [v.mean_l2[bucket] for v in videos if v.scored and bucket in v.mean_l2]
        if not ious:
            continue
        mean_iou, sem_iou = _mean_sem(ious)
        mean_l2, sem_l2 = _mean_sem(l2s)
        rows.append(BucketStats(bucket, mean_iou, sem_iou, mean_l2, sem_l2, len(ious)))
    return rows, excluded


def render_table(rows: Sequence[tuple[str, BucketStats]]) -> str:
    """Fixed-width text table for (tracker, stats) rows."""
    header = f"{'tracker':<10} {'subtask':<10} {'mean_iou':>9} {'sem_iou':>8} {'mean_l2':>9} {'sem_l2':>8} {'n':>4}"
    lines = [header, "-" * len(header)]
    for tracker, s in rows:
        lines.append(
            f"{tracker:<10} {s.subtask:<10} {s.mean_iou:>9.4f} {s.sem_iou:>8.4f} "
            f"{s.mean_l2:>9.3f} {s.sem_l2:>8.3f} {s.n_videos:>4d}"
        )
    return "\n".join(lines)


def results_csv(rows: Sequence[tuple[str, BucketStats]]) -> str:
    """One line per row: the tracker, then the ``BucketStats`` fields in
    order; floats keep full ``repr`` precision. A tracker name holding a
    comma, quote or newline is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["tracker", *(f.name for f in fields(BucketStats))])
    writer.writerows((tracker, *astuple(s)) for tracker, s in rows)
    return out.getvalue()


def results_json_payload(
    rows: Sequence[tuple[str, BucketStats]], excluded: int = 0
) -> dict:
    return {
        "results": [{"tracker": tracker, **asdict(s)} for tracker, s in rows],
        "excluded_videos": excluded,
    }
