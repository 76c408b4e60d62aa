"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured quantities when it succeeds."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from anchorkit.alignment import solve_assignment
from anchorkit.core import EngineConfig, Percept
from anchorkit.io_jsonl import load_engine_config, load_scenario
from anchorkit.metrics import aggregate, score_stream
from anchorkit.pipeline import run_engine_stream, run_heuristic_stream
from anchorkit.simulate import NoiseConfig, build_template, generate, h1_violations
from anchorkit.tracker import ANCHORED, AnchoringEngine
from anchorkit.hypothesis import update_confidence
from anchorkit.core import Anchor, Attributes, LOST, OCCLUDED


def brute_force(values: np.ndarray):
    n_rows, n_cols = values.shape
    best, best_cost = [], float("inf")
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            cost = sum(values[r, c] for r, c in enumerate(cols))
            if cost < best_cost:
                best_cost, best = cost, list(enumerate(cols))
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            cost = sum(values[r, c] for c, r in enumerate(rows))
            if cost < best_cost:
                best_cost, best = cost, sorted((r, c) for c, r in enumerate(rows))
    return best, best_cost


def test_criterion_1_assignment_matches_brute_force_on_1000_matrices():
    rng = np.random.default_rng(20240501)
    started = time.perf_counter()
    for _ in range(1000):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        values = rng.uniform(0.0, 1000.0, size=shape)
        got = solve_assignment(values)
        want, want_cost = brute_force(values)
        assert got == want
        assert sum(values[r, c] for r, c in got) == pytest.approx(want_cost)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS - 1000/1000 exact matches in {elapsed:.2f}s")


def test_criterion_2_noiseless_exactness_on_100_mixed_scenarios():
    config = EngineConfig()
    started = time.perf_counter()
    videos = []
    for seed in range(100):
        record = generate(build_template("mixed", seed))
        assert set(record.labels) == {"visible", "occluded", "contained", "carried"}
        assert h1_violations(record) == []
        run = run_engine_stream(record.frame_inputs(), config)
        videos.append(score_stream(run.predictions, record.scenario()))
    rows, excluded = aggregate(videos)
    elapsed = time.perf_counter() - started
    assert excluded == 0
    by_bucket = {r.subtask: r for r in rows}
    for bucket in ("visible", "occluded", "contained", "carried"):
        stats = by_bucket[bucket]
        assert stats.n_videos == 100
        assert stats.mean_iou >= 0.99, f"{bucket} IoU {stats.mean_iou}"
        assert stats.mean_l2 <= 0.5, f"{bucket} L2 {stats.mean_l2}"
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    print(
        "\nACCEPTANCE 2: PASS - 100 scenarios, "
        + ", ".join(
            f"{b}: IoU {by_bucket[b].mean_iou:.4f} / L2 {by_bucket[b].mean_l2:.2e}px"
            for b in ("visible", "occluded", "contained", "carried")
        )
        + f", {elapsed:.1f}s"
    )


def test_criterion_3_engine_beats_heuristic_on_carried_suite():
    config = EngineConfig()
    engine_videos, heuristic_videos = [], []
    for seed in range(50):
        record = generate(build_template("carried", seed))
        scenario = record.scenario()
        frames = scenario.inputs
        engine_videos.append(
            score_stream(run_engine_stream(frames, config).predictions, scenario)
        )
        heuristic_videos.append(
            score_stream(run_heuristic_stream(frames).predictions, scenario)
        )
    engine_rows = {r.subtask: r for r in aggregate(engine_videos)[0]}
    heuristic_rows = {r.subtask: r for r in aggregate(heuristic_videos)[0]}
    engine_l2 = engine_rows["carried"].mean_l2
    heuristic_l2 = heuristic_rows["carried"].mean_l2
    assert engine_l2 < heuristic_l2
    assert engine_rows["carried"].mean_iou > heuristic_rows["carried"].mean_iou
    print(
        f"\nACCEPTANCE 3: PASS - carried L2 engine {engine_l2:.3f}px < "
        f"heuristic {heuristic_l2:.3f}px (IoU {engine_rows['carried'].mean_iou:.3f} vs "
        f"{heuristic_rows['carried'].mean_iou:.3f}) over 50 scenarios"
    )


def test_criterion_4_ghost_suppression_and_burst_retention():
    config = load_engine_config("assembly")  # conf+ 0.05, kappa_anch 0.5
    assert config.conf_inc == 0.05 and config.kappa_anch == 0.5
    noise = NoiseConfig(
        miss_rate=0.008,
        ghost_rate=0.05,
        jitter_sigma=0.0,
        flicker_burst_length=3,
        ghost_clearance=90.0,
    )
    for seed in range(50):
        record = generate(build_template("static", seed, n_objects=6, noise=noise))
        truth_names = {o.name for o in record.objects}
        engine = AnchoringEngine(config)
        seen_ids: set[str] = set()
        for frame in record.frame_inputs():
            engine.step(frame)
            seen_ids.update(a.anchor_id for a in engine.query(ANCHORED))
        ghost_ids = seen_ids - truth_names
        assert ghost_ids == set(), f"seed {seed}: ghost anchors {ghost_ids}"
        assert seen_ids == truth_names, f"seed {seed}: identity switches {seen_ids ^ truth_names}"
    print("\nACCEPTANCE 4: PASS - 50 seeds, zero ghost anchors, zero identity switches")


def test_criterion_5_pure_camera_motion_is_equivariant():
    config = EngineConfig()
    record = generate(build_template("camera", 42, n_objects=8))
    assert h1_violations(record) == []
    engine = AnchoringEngine(config, check_invariants=True)
    seen_ids: set[str] = set()
    worst = 0.0
    exercised_out_of_view = False
    for frame in record.frame_inputs():
        engine.step(frame)
        for anchor in engine.query(ANCHORED):
            seen_ids.add(anchor.anchor_id)
            truth = record.image_position(frame.frame_index, anchor.anchor_id)
            estimate = anchor.attributes.position
            worst = max(worst, abs(estimate[0] - truth[0]), abs(estimate[1] - truth[1]))
            if anchor.status == "out_of_view":
                exercised_out_of_view = True
    assert len(seen_ids) == 8, f"identity switches: {sorted(seen_ids)}"
    assert worst <= 1e-9, f"worst deviation {worst}"
    assert exercised_out_of_view
    print(f"\nACCEPTANCE 5: PASS - 8/8 stable ids over 300 frames, worst deviation {worst:.1e}px")


def test_criterion_6_missing_prediction_scoring_on_single_detection_video():
    config = EngineConfig()
    record = generate(build_template("static", 5, n_objects=5))
    snitch = record.target_name()
    reveal = 120

    def strip(percepts, frame):
        kept = [p for p in percepts if p.attributes.object_type != "snitch"]
        if frame == reveal:
            kept = list(percepts)
        return tuple(
            Percept(i, p.attributes, p.detector_score) for i, p in enumerate(kept)
        )

    record = dataclasses.replace(
        record,
        detections=tuple(
            strip(percepts, f) for f, percepts in enumerate(record.detections)
        ),
    )
    scenario = record.scenario()
    assert scenario.first_detection_frame() == reveal

    run = run_engine_stream(scenario.inputs, config)
    scores = score_stream(run.predictions, scenario)
    assert scores.first_frame == reveal
    assert scores.frame_counts["overall"] == record.frames - reveal

    # the single-detection frame is predicted from the provisional candidate
    assert run.predictions[reveal] is not None
    assert all(p is None for p in run.predictions[reveal + 1 :])

    # expected means computed independently from the origin-vector rule
    truth_norms = [
        math.hypot(*record.image_position(f, snitch))
        for f in range(reveal + 1, record.frames)
    ]
    expected_l2 = (0.0 + sum(truth_norms)) / (record.frames - reveal)
    assert scores.mean_l2["overall"] == pytest.approx(expected_l2)
    expected_iou = 1.0 / (record.frames - reveal)
    assert scores.mean_iou["overall"] == pytest.approx(expected_iou)

    # a video with no detection at all is excluded, not scored
    never = dataclasses.replace(
        record,
        detections=tuple(
            tuple(p for p in percepts if p.attributes.object_type != "snitch")
            for percepts in record.detections
        ),
    )
    never_scores = score_stream(
        run_engine_stream(never.frame_inputs(), config).predictions, never.scenario()
    )
    assert not never_scores.scored
    assert aggregate([never_scores])[1] == 1
    print(
        f"\nACCEPTANCE 6: PASS - frames <{reveal} excluded, absent predictions scored "
        f"as truth-center norm (mean L2 {scores.mean_l2['overall']:.2f}px)"
    )


def test_criterion_7_confidence_arithmetic_unit_suite():
    config = EngineConfig()  # conf+ = conf- = 0.1, kappa_anch = 0.1

    def anchor(conf, status="visible"):
        return Anchor("x0", Attributes("cube", (0.0, 0.0), (10.0, 10.0)), conf, status, 0)

    # first detection then alignment: 0 -> 0.1
    assert update_confidence(anchor(0.0), True, config) == (0.1, False)
    # cap at 1
    assert update_confidence(anchor(1.0), True, config) == (1.0, False)
    # unanchored disappearance: 0.05 - 0.1 -> -0.05, pruned
    conf, pruned = update_confidence(anchor(0.05), False, config)
    assert conf == pytest.approx(-0.05) and pruned
    # boundary: exactly kappa_anch counts as anchored (maintained, not decayed)
    held = anchor(config.kappa_anch, status=OCCLUDED)
    assert update_confidence(held, False, config) == (config.kappa_anch, False)
    # boundary: 0 - conf- < 0 is pruned
    conf, pruned = update_confidence(anchor(0.0, status=LOST), False, config)
    assert conf == pytest.approx(-0.1) and pruned
    print("\nACCEPTANCE 7: PASS - confidence increments, caps, and prune boundaries exact")


def test_criterion_8_external_benchmark_if_provided():
    data_dir = os.environ.get("BENCHMARK_DATA_DIR")
    if not data_dir:
        pytest.skip("external benchmark annotations not provided (set BENCHMARK_DATA_DIR)")
    prefixes = sorted(
        str(p)[: -len(".detections.jsonl")]
        for p in Path(data_dir).glob("*.detections.jsonl")
    )
    assert prefixes, f"no scenario pairs under {data_dir}"
    config = EngineConfig()
    videos = []
    for prefix in prefixes:
        scenario = load_scenario(prefix)
        run = run_engine_stream(scenario.inputs, config)
        videos.append(score_stream(run.predictions, scenario))
    rows, _ = aggregate(videos)
    overall = next(r for r in rows if r.subtask == "overall")
    mean_iou_pct = overall.mean_iou * 100.0
    assert abs(mean_iou_pct - 96.31) <= 2.0, f"overall IoU {mean_iou_pct:.2f}%"
    print(f"\nACCEPTANCE 8: PASS - overall IoU {mean_iou_pct:.2f}% within 96.31 +/- 2.0")
