from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, fields

import pytest

from anchorkit.core import Attributes, EngineConfig, Percept
from anchorkit.metrics import (
    BucketStats,
    EvalError,
    Scenario,
    VideoScores,
    aggregate,
    box_corners,
    iou,
    l2_center,
    results_csv,
    results_json_payload,
    score_stream,
)
from anchorkit.pipeline import run_engine_stream
from anchorkit.simulate import build_template, generate
from anchorkit.tracker import FrameInput


def box(cx, cy, w, h):
    return ((cx, cy), (w, h))


class TestIoU:
    def test_identical_boxes(self):
        assert iou(box(10, 10, 20, 20), box(10, 10, 20, 20)) == 1.0

    def test_disjoint_boxes(self):
        assert iou(box(0, 0, 10, 10), box(100, 100, 10, 10)) == 0.0

    def test_half_overlapping_boxes(self):
        # corner form (0,0)-(10,10) vs (5,0)-(15,10): intersection 50, union 150
        a = box(5.0, 5.0, 10.0, 10.0)
        b = box(10.0, 5.0, 10.0, 10.0)
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_symmetry_and_identity(self):
        a, b = box(3, 4, 8, 6), box(5, 5, 10, 12)
        assert iou(a, b) == iou(b, a)
        assert iou(a, a) == 1.0

    def test_corner_conversion(self):
        assert box_corners(box(5.0, 5.0, 10.0, 10.0)) == (0.0, 0.0, 10.0, 10.0)


class TestL2Center:
    def test_equal_boxes_zero(self):
        assert l2_center(box(7, 7, 4, 4), box(7, 7, 10, 10)) == 0.0

    def test_pythagorean_distance(self):
        assert l2_center(box(0, 0, 4, 4), box(3, 4, 4, 4)) == pytest.approx(5.0)

    def test_missing_prediction_scores_norm_of_truth_center(self):
        assert l2_center(None, box(100.0, 50.0, 10.0, 10.0)) == pytest.approx(
            math.sqrt(12500.0)
        )

    def test_translation_invariance(self):
        a, b = box(10, 20, 4, 4), box(13, 24, 6, 6)
        shifted_a, shifted_b = box(110, 120, 4, 4), box(113, 124, 6, 6)
        assert l2_center(a, b) == pytest.approx(l2_center(shifted_a, shifted_b))


def make_scenario(labels, boxes, first):
    """A scenario whose snitch has the given true boxes and is detected,
    once per frame, from frame ``first`` on (never if ``first`` is None)."""
    detected = Percept(0, Attributes("snitch", (0.0, 0.0), (1.0, 1.0)))
    inputs = tuple(
        FrameInput(f, (detected,) if first is not None and f >= first else ())
        for f in range(len(labels))
    )
    objects = tuple((("snitch0", "snitch", b),) for b in boxes)
    return Scenario(inputs, tuple(labels), objects)


class TestScoreStream:
    def test_perfect_predictions(self):
        labels = ("visible", "occluded", "contained", "carried")
        boxes = [box(50.0 + f, 60.0, 18.0, 18.0) for f in range(4)]
        scenario = make_scenario(labels, boxes, first=0)
        scores = score_stream(list(boxes), scenario)
        assert scores.scored
        for bucket in ("visible", "occluded", "contained", "carried", "overall"):
            assert scores.mean_iou[bucket] == 1.0
            assert scores.mean_l2[bucket] == 0.0

    def test_frames_before_first_detection_are_excluded(self):
        labels = ("visible",) * 6
        boxes = [box(100.0, 50.0, 10.0, 10.0)] * 6
        scenario = make_scenario(labels, boxes, first=3)
        predictions = [None, None, None] + list(boxes[3:])
        scores = score_stream(predictions, scenario)
        assert scores.first_frame == 3
        assert scores.frame_counts["overall"] == 3
        assert scores.mean_l2["overall"] == 0.0

    def test_never_detected_video_is_reported_unscored(self):
        scenario = make_scenario(("visible",) * 5, [box(1, 1, 2, 2)] * 5, first=None)
        scores = score_stream([None] * 5, scenario)
        assert not scores.scored
        _, excluded = aggregate([scores])
        assert excluded == 1

    def test_missing_predictions_after_first_detection_use_origin_rule(self):
        labels = ("visible", "visible")
        boxes = [box(100.0, 50.0, 10.0, 10.0)] * 2
        scenario = make_scenario(labels, boxes, first=0)
        scores = score_stream([boxes[0], None], scenario)
        assert scores.mean_iou["overall"] == pytest.approx(0.5)
        assert scores.mean_l2["overall"] == pytest.approx(math.sqrt(12500.0) / 2)

    def test_length_mismatch_rejected(self):
        scenario = make_scenario(("visible",) * 3, [box(1, 1, 2, 2)] * 3, first=0)
        with pytest.raises(EvalError, match="frames"):
            score_stream([None] * 2, scenario)

    def test_truth_frame_without_the_target_rejected(self):
        scenario = make_scenario(("visible",) * 2, [box(1, 1, 2, 2)] * 2, first=0)
        cube_only = (("cube0", "cube", box(1, 1, 2, 2)),)
        scenario = Scenario(scenario.inputs, scenario.labels, (scenario.objects[0], cube_only))
        with pytest.raises(EvalError, match="no object of type 'snitch' in truth frame 1"):
            score_stream([None] * 2, scenario)

    def test_unknown_label_rejected(self):
        scenario = make_scenario(("hovering",), [box(1, 1, 2, 2)], first=0)
        with pytest.raises(EvalError, match="label"):
            score_stream([None], scenario)


class TestAggregate:
    def test_two_video_mean_and_sem(self):
        videos = [
            VideoScores(True, 0, {"overall": 1.0}, {"overall": 2.0}, {"overall": 10}),
            VideoScores(True, 0, {"overall": 0.5}, {"overall": 4.0}, {"overall": 10}),
        ]
        rows, excluded = aggregate(videos)
        assert excluded == 0
        (overall,) = rows
        assert overall.subtask == "overall"
        assert overall.mean_l2 == pytest.approx(3.0)
        assert overall.sem_l2 == pytest.approx(1.0)
        assert overall.n_videos == 2

    def test_single_video_sem_is_zero(self):
        rows, _ = aggregate(
            [VideoScores(True, 0, {"overall": 0.8}, {"overall": 1.5}, {"overall": 3})]
        )
        assert rows[0].sem_iou == 0.0 and rows[0].sem_l2 == 0.0

    def test_bucket_counts_follow_contributing_videos(self):
        videos = [
            VideoScores(True, 0, {"visible": 1.0, "overall": 1.0},
                        {"visible": 0.0, "overall": 0.0}, {"visible": 5, "overall": 5}),
            VideoScores(True, 0, {"carried": 0.5, "overall": 0.5},
                        {"carried": 9.0, "overall": 9.0}, {"carried": 5, "overall": 5}),
            VideoScores(False),
        ]
        rows, excluded = aggregate(videos)
        by_bucket = {r.subtask: r for r in rows}
        assert excluded == 1
        assert by_bucket["visible"].n_videos == 1
        assert by_bucket["carried"].n_videos == 1
        assert by_bucket["overall"].n_videos == 2



class TestResultWriters:
    ROWS = [
        ("aapa", BucketStats("visible", 0.1, 1 / 3, 12.5, 0.0, 4)),
        ("heuristic", BucketStats("overall", 2 / 3, 0.0, 1e-17, 123456.789, 1)),
    ]

    def test_csv_text(self):
        assert results_csv(self.ROWS) == (
            "tracker,subtask,mean_iou,sem_iou,mean_l2,sem_l2,n_videos\n"
            "aapa,visible,0.1,0.3333333333333333,12.5,0.0,4\n"
            "heuristic,overall,0.6666666666666666,0.0,1e-17,123456.789,1\n"
        )

    @pytest.mark.parametrize("name", ["aapa,v2", 'say "hi"', "two\nlines"])
    def test_csv_reads_back_with_awkward_tracker_names(self, name):
        rows = [(name, stats) for _, stats in self.ROWS]
        header, *read = csv.reader(io.StringIO(results_csv(rows)))
        assert header == ["tracker", *(f.name for f in fields(BucketStats))]
        assert read == [[name, *map(str, astuple(stats))] for _, stats in rows]

    def test_json_payload(self):
        payload = results_json_payload(self.ROWS, excluded=2)
        keys = ["tracker", "subtask", "mean_iou", "sem_iou", "mean_l2", "sem_l2", "n_videos"]
        assert payload == {
            "results": [
                dict(zip(keys, ["aapa", "visible", 0.1, 1 / 3, 12.5, 0.0, 4])),
                dict(zip(keys, ["heuristic", "overall", 2 / 3, 0.0, 1e-17, 123456.789, 1])),
            ],
            "excluded_videos": 2,
        }
        assert list(payload) == ["results", "excluded_videos"]
        assert all(list(row) == keys for row in payload["results"])
        assert results_json_payload([]) == {"results": [], "excluded_videos": 0}


def test_noiseless_suite_scores_perfectly_end_to_end():
    record = generate(build_template("mixed", 3))
    run = run_engine_stream(record.frame_inputs(), EngineConfig())
    scores = score_stream(run.predictions, record.scenario())
    for bucket in ("visible", "occluded", "contained", "carried", "overall"):
        assert scores.mean_iou[bucket] == pytest.approx(1.0)
        assert scores.mean_l2[bucket] == pytest.approx(0.0, abs=1e-9)
