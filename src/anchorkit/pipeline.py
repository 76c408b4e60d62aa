"""Composition helpers tying simulate, track, and score together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Anchor, Box, EngineConfig
from .heuristic import HeuristicTracker
from .metrics import TARGET_TYPE, BucketStats, Scenario, VideoScores, aggregate, score_stream
from .tracker import ANCHORED, AnchoringEngine, FrameInput

TRACKERS = ("aapa", "heuristic")


@dataclass
class TrackRun:
    """Output of one tracker over one detection stream."""

    predictions: list[Box | None]
    world: list[tuple[int, tuple[Anchor, ...]]]


def run_engine_stream(
    frames: Sequence[FrameInput],
    config: EngineConfig,
    *,
    check_invariants: bool = False,
) -> TrackRun:
    engine = AnchoringEngine(config, check_invariants=check_invariants)
    predictions: list[Box | None] = []
    world: list[tuple[int, tuple[Anchor, ...]]] = []
    for frame in frames:
        engine.step(frame)
        world.append((frame.frame_index, tuple(engine.query(ANCHORED))))
        target = engine.predict(TARGET_TYPE)
        predictions.append(target.box if target is not None else None)
    return TrackRun(predictions=predictions, world=world)


def run_heuristic_stream(frames: Sequence[FrameInput]) -> TrackRun:
    tracker = HeuristicTracker()
    predictions = [tracker.step(frame.percepts) for frame in frames]
    return TrackRun(predictions=predictions, world=[])


def run_tracker(
    frames: Sequence[FrameInput],
    tracker: str,
    config: EngineConfig,
) -> TrackRun:
    if tracker == "aapa":
        return run_engine_stream(frames, config)
    if tracker == "heuristic":
        return run_heuristic_stream(frames)
    raise ValueError(f"unknown tracker {tracker!r} (expected one of {TRACKERS})")


def score_scenarios(
    scenarios: Sequence[Scenario], config: EngineConfig
) -> tuple[list[tuple[str, BucketStats]], int]:
    """Run both trackers over every scenario and aggregate per-subtask stats.

    Also returns the number of scenarios whose target is never detected.
    Every tracker excludes the same ones, because that depends only on the
    detection stream.
    """
    per_tracker: dict[str, list[VideoScores]] = {name: [] for name in TRACKERS}
    for scenario in scenarios:
        for name in TRACKERS:
            run = run_tracker(scenario.inputs, name, config)
            per_tracker[name].append(score_stream(run.predictions, scenario))
    rows: list[tuple[str, BucketStats]] = []
    excluded = 0
    for name in TRACKERS:
        stats, excluded = aggregate(per_tracker[name])
        rows.extend((name, entry) for entry in stats)
    return rows, excluded
