from __future__ import annotations

import dataclasses
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorkit import alignment
from anchorkit.cli import main
from anchorkit.core import ATTACHED, Anchor, Attributes, ConfigError, EngineConfig, EngineError
from anchorkit.io_jsonl import (
    _ENGINE_FIELDS,
    StreamFormatError,
    load_engine_config,
    load_scenario,
    read_detection_stream,
    read_predictions,
    write_detection_stream,
    write_predictions,
    write_truth_stream,
    write_world_stream,
)
from anchorkit.metrics import SUBTASKS, TARGET_TYPE, Scenario
from anchorkit.pipeline import run_tracker
from anchorkit.simulate import TEMPLATES, NoiseConfig, build_template, generate
from anchorkit.tracker import FrameInput
from anchorkit.core import ActionEvent, Percept


def sample_frames():
    return [
        FrameInput(
            0,
            (
                Percept(0, Attributes("cone", (100.0, 80.0), (40.0, 40.0)), 0.9),
                Percept(1, Attributes("snitch", (50.5, 60.25), (18.0, 18.0)), 1.0),
            ),
            (0.0, 0.0),
            (),
        ),
        FrameInput(
            2,
            (Percept(0, Attributes("cone", (102.0, 80.0), (40.0, 40.0)), 0.8),),
            (1.0, -2.0),
            (ActionEvent("contain", ("cone0", "snitch0")),),
        ),
    ]


INJECTED = "injected engine error"
TOO_LARGE_TO_PAD = "cost matrix entries too large to pad"


def reject_frames_of_two_percepts(monkeypatch, message: str = INJECTED) -> None:
    """Make the engine raise ``EngineError(message)`` on any frame of two percepts.

    Alignment keeps only pairs below tau, so no detection a reader accepts
    makes it fail; the error is injected where its cost matrix is solved."""
    solve = alignment.solve_assignment

    def reject(values, tau):
        if len(values) == 2:
            raise EngineError(message)
        return solve(values, tau)

    monkeypatch.setattr(alignment, "solve_assignment", reject)


def write_far_cube_stream(tmp_path, x: float):
    """Write a stream whose second frame adds a cube at ``(x, 10)``; return its path."""
    cube = {"id": 0, "type": "cube", "score": 1.0, "pos": [10, 10], "size": [30, 30]}
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        {"frame": 0, "camera": [0, 0], "detections": [cube], "actions": []},
        {"frame": 1, "camera": [0, 0], "detections": [cube, dict(cube, id=1, pos=[x, 10])],
         "actions": []},
    ])
    return path


def write_lines(path, lines) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def write_config(path, config) -> str:
    """``config`` as JSON, or a string written as it is."""
    text = config if isinstance(config, str) else json.dumps(config)
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_cli_error(capsys, path, field) -> None:
    """The command printed one ``error: <path>: <field> ...`` line and no traceback."""
    err = capsys.readouterr().err
    assert re.match(rf"error: {re.escape(str(path))}: {field}", err), err
    assert "Traceback" not in err


class TestDetectionStreams:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        frames = sample_frames()
        write_detection_stream(path, frames)
        assert read_detection_stream(path) == frames

    def test_empty_file_is_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_detection_stream(path) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_detection_stream(path, sample_frames())
        first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("\n" + first + "  \n\n" + second + "\n", encoding="utf-8")
        assert read_detection_stream(path) == sample_frames()

    def test_single_line(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_detection_stream(path, sample_frames()[:1])
        frames = read_detection_stream(path)
        assert len(frames) == 1 and frames[0].frame_index == 0

    def test_negative_size_names_field_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        line = {
            "frame": 0,
            "camera": [0, 0],
            "detections": [
                {"id": 0, "type": "cone", "score": 1.0, "pos": [1, 2], "size": [-5, 10]}
            ],
            "actions": [],
        }
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(StreamFormatError, match=r"bad\.jsonl:1.*detections\[0\]\.size"):
            read_detection_stream(path)

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"frame": 0, "detections": []}\n{oops\n', encoding="utf-8")
        with pytest.raises(StreamFormatError, match=r"broken\.jsonl:2"):
            read_detection_stream(path)

    @pytest.mark.parametrize(
        "second",
        [
            b'{"frame": 1, "detections": [], "note": "\xff"}',
            b'{"frame": 1' + b"0" * 4400 + b', "detections": []}',
        ],
        ids=["bad-utf8", "long-integer"],
    )
    def test_track_reports_an_unreadable_line_and_exits_1(self, tmp_path, capsys, second):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"frame": 0, "detections": []}\n' + second + b"\n")
        assert main(["track", "--detections", str(path),
                     "--predictions-out", str(tmp_path / "p.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: invalid JSON"), err
        assert "Traceback" not in err

    def test_non_monotone_frames_rejected(self, tmp_path):
        path = tmp_path / "order.jsonl"
        lines = [
            {"frame": 7, "camera": [0, 0], "detections": [], "actions": []},
            {"frame": 5, "camera": [0, 0], "detections": [], "actions": []},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        with pytest.raises(StreamFormatError, match="strictly increasing"):
            read_detection_stream(path)

    @pytest.mark.parametrize(
        "command",
        [["track", "--tracker", "aapa"], ["track", "--tracker", "heuristic"], ["compare"]],
        ids=["track-aapa", "track-heuristic", "compare"],
    )
    def test_a_negative_frame_index_is_an_error_of_its_line(self, tmp_path, capsys, command):
        path = tmp_path / "neg.detections.jsonl"
        write_lines(path, [{"frame": -2, "detections": []}, {"frame": 0, "detections": []}])
        write_lines(tmp_path / "neg.truth.jsonl", [truth_line(-2), truth_line(0)])
        if command == ["compare"]:
            args = ["--scenarios", str(tmp_path)]
        else:
            args = ["--detections", str(path), "--predictions-out", str(tmp_path / "p.jsonl")]
        assert main(command + args) == 1
        assert_cli_error(capsys, f"{path}:1", r"frame must be >= 0\n$")

    def test_duplicate_percept_ids_rejected(self, tmp_path):
        path = tmp_path / "dupe.jsonl"
        det = {"id": 0, "type": "cone", "score": 1.0, "pos": [1, 2], "size": [5, 5]}
        line = {"frame": 0, "camera": [0, 0], "detections": [det, det], "actions": []}
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(StreamFormatError, match="repeats"):
            read_detection_stream(path)

    def test_reserved_candidate_type_prefix_rejected(self, tmp_path, capsys):
        path = tmp_path / "reserved.jsonl"
        cube = {"id": 0, "type": "cube", "score": 1.0, "pos": [50, 50], "size": [20, 20]}
        cand = {"id": 1, "type": "cand", "score": 1.0, "pos": [150, 50], "size": [20, 20]}
        lines = [
            {"frame": 0, "detections": [cube]},
            {"frame": 1, "detections": [cube, cand]},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        with pytest.raises(StreamFormatError, match=r"reserved\.jsonl:2.*detections\[1\]\.type"):
            read_detection_stream(path)
        assert main(["track", "--detections", str(path),
                     "--predictions-out", str(tmp_path / "p.jsonl")]) == 1
        assert "reserved.jsonl:2" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "frame, changes, field",
        [
            (True, {"id": False, "pos": [True, 1]}, "frame"),
            (0, {"id": False}, r"detections\[0\]\.id"),
            (0, {"pos": [True, 1]}, r"detections\[0\]\.pos"),
            (0, {"score": True}, r"detections\[0\]\.score"),
        ],
    )
    def test_json_booleans_are_not_numbers(self, tmp_path, frame, changes, field):
        det = {"id": 0, "type": "cone", "score": 1.0, "pos": [1, 2], "size": [5, 5]}
        path = tmp_path / "bools.jsonl"
        write_lines(path, [{"frame": frame, "detections": [dict(det, **changes)]}])
        with pytest.raises(StreamFormatError, match=rf"bools\.jsonl:1: {field}"):
            read_detection_stream(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ({"frame": 0, "percepts": []},
             r"percepts is not a known key \(frame, camera, detections, actions\)"),
            ({"frame": 0, "detections": [{"id": 0, "type": "cone", "pos": [1, 2],
                                          "size": [5, 5], "conf": 1.0}]},
             r"detections\[0\]\.conf is not a known key \(id, type, score, pos, size\)"),
            ({"frame": 0, "actions": [{"name": "contain", "arguments": ["cone0", "cube0"]}]},
             r"actions\[0\]\.arguments is not a known key \(name, args\)"),
        ],
    )
    def test_unknown_keys_name_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "keys.jsonl"
        write_lines(path, [{"frame": 0}, dict(line, frame=1)])
        with pytest.raises(StreamFormatError, match=rf"keys\.jsonl:2: {message}"):
            read_detection_stream(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ({"detections": [{"type": "", "pos": [1, 2], "size": [5, 5]}]},
             r"detections\[0\]\.type must be a non-empty string"),
            ({"detections": [{"pos": [1, 2], "size": [5, 5]}]},
             r"detections\[0\]\.type must be a non-empty string"),
            ({"actions": [{"args": ["cone0", "cube0"]}]},
             r"actions\[0\] must carry a string 'name'"),
            ({"actions": [{"name": 3, "args": ["cone0", "cube0"]}]},
             r"actions\[0\] must carry a string 'name'"),
            ({"actions": [{"name": "contain", "args": []}]},
             r"actions\[0\]\.args must be a non-empty list of strings"),
            ({"actions": [{"name": "contain"}]},
             r"actions\[0\]\.args must be a non-empty list of strings"),
            ({"actions": [{"name": "contain", "args": ["cone0", 1]}]},
             r"actions\[0\]\.args must be a non-empty list of strings"),
        ],
    )
    def test_malformed_fields_name_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "fields.jsonl"
        write_lines(path, [{"frame": 0}, dict(line, frame=1)])
        with pytest.raises(StreamFormatError, match=rf"fields\.jsonl:2: {message}"):
            read_detection_stream(path)

    def test_track_rejects_a_misspelt_detections_key_and_exits_1(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        snitch = {"id": 0, "type": "snitch", "pos": [50, 50], "size": [18, 18]}
        write_lines(path, [{"frame": 0, "percepts": [snitch]}, {"frame": 1, "percepts": []}])
        predictions = tmp_path / "p.jsonl"
        assert main(["track", "--detections", str(path),
                     "--predictions-out", str(predictions)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:1: percepts is not a known key (frame, camera, detections, actions)\n"
        )
        assert not predictions.exists()

    def test_lists_must_hold_objects(self, tmp_path):
        path = tmp_path / "lists.jsonl"
        write_lines(path, [{"frame": 0}, {"frame": 1, "actions": 5}])
        with pytest.raises(StreamFormatError, match=r"lists\.jsonl:2: actions must be a list"):
            read_detection_stream(path)


class TestWorldStreams:
    def test_round_trip_and_parent_field(self, tmp_path):
        path = tmp_path / "world.jsonl"
        anchors = (
            Anchor("cone0", Attributes("cone", (10.0, 20.0), (40.0, 40.0)), 0.7, "visible", 3),
            Anchor(
                "snitch0",
                Attributes("snitch", (11.0, 20.0), (18.0, 18.0)),
                0.9,
                ATTACHED,
                3,
                parent="cone0",
                parent_offset=(1.0, 0.0),
            ),
        )
        write_world_stream(path, [(3, anchors)])
        raw = path.read_text(encoding="utf-8")
        assert '"parent":"cone0"' in raw
        line = json.loads(raw)
        assert line == {"frame": 3, "anchors": [
            {"id": "cone0", "type": "cone", "pos": [10.0, 20.0], "size": [40.0, 40.0],
             "conf": 0.7, "status": "visible"},
            {"id": "snitch0", "type": "snitch", "pos": [11.0, 20.0], "size": [18.0, 18.0],
             "conf": 0.9, "status": ATTACHED, "parent": "cone0"},
        ]}
        # one compact line, keys in the documented order
        assert raw == json.dumps(line, separators=(",", ":")) + "\n"

    def test_empty_anchor_list_line(self, tmp_path):
        path = tmp_path / "world.jsonl"
        write_world_stream(path, [(0, ())])
        assert path.read_text(encoding="utf-8") == '{"frame":0,"anchors":[]}\n'


_BOX = ((50.5, 60.25), (18.0, 18.0))
_NAN_BOX = ((float("nan"), 60.25), (18.0, 18.0))


@pytest.mark.parametrize(
    "write, items",
    [
        (write_detection_stream,
         sample_frames()[:1] + [FrameInput(2, (Percept(0, Attributes("cone", *_NAN_BOX)),))]),
        (write_world_stream,
         [(0, ()), (1, (Anchor("cone0", Attributes("cone", *_NAN_BOX), 0.7, "visible", 1),))]),
        (write_predictions, [_BOX, _NAN_BOX]),
        (write_truth_stream,
         Scenario(tuple(sample_frames()), ("visible", "visible"),
                  ((("snitch0", "snitch", _BOX),), (("snitch0", "snitch", _NAN_BOX),)))),
    ],
    ids=["detections", "world", "predictions", "truth"],
)
def test_writers_reject_non_finite_numbers_by_path_and_line(tmp_path, write, items):
    path = tmp_path / "stream.jsonl"
    with pytest.raises(StreamFormatError, match=rf"^{re.escape(str(path))}:2: Out of range float"):
        write(path, items)
    assert list(tmp_path.iterdir()) == []  # no partial stream, no temporary file


def test_a_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "p.jsonl"
    write_predictions(path, [_BOX])
    before = path.read_bytes()
    with pytest.raises(StreamFormatError):
        write_predictions(path, [_BOX, _NAN_BOX])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


class TestPredictions:
    def test_round_trip_with_gaps(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        preds = [((1.5, 2.5), (18.0, 18.0)), None, ((3.0, 4.0), (18.0, 18.0))]
        write_predictions(path, preds)
        assert read_predictions(path) == preds

    @pytest.mark.parametrize(
        "lines, bad_line, message",
        [
            ([{"frame": 0, "box": [1, 2]}], 1, "box must be null or an object"),
            ([{"frame": 5, "box": None}, {"frame": 1, "box": None}], 1, "frame must be 0"),
            ([{"frame": 0, "box": None}, {"frame": 2, "box": None}], 2, "frame must be 1"),
            ([{"frame": False, "box": None}], 1, "frame must be 0"),
            ([{"box": None}], 1, "frame must be 0"),
            ([{"frame": 0, "box": {"pos": [True, 1], "size": [2, 2]}}], 1, r"box\.pos"),
            ([{"frame": 0, "box": None, "score": 1.0}], 1,
             r"score is not a known key \(frame, box\)"),
            ([{"frame": 0, "box": {"pos": [1, 2], "size": [2, 2], "conf": 1}}], 1,
             r"box\.conf is not a known key \(pos, size\)"),
        ],
    )
    def test_malformed_lines_name_path_and_line(self, tmp_path, lines, bad_line, message):
        path = tmp_path / "pred.jsonl"
        write_lines(path, lines)
        with pytest.raises(StreamFormatError, match=rf"pred\.jsonl:{bad_line}: {message}"):
            read_predictions(path)


def truth_line(frame, **changes):
    # The camera of ``sample_frames()`` at that frame.
    camera = [1, -2] if frame == 2 else [0, 0]
    line = {"frame": frame, "camera": camera, "snitch_label": "visible",
            "objects": [{"name": "snitch0", "type": "snitch", "pos": [50.5, 60.25],
                         "size": [18, 18]}]}
    return dict(line, **changes)


class TestTruthFiles:
    """A truth file beside ``sample_frames()``, whose frames are 0 and 2."""

    def write(self, tmp_path, lines):
        write_detection_stream(tmp_path / "scn.detections.jsonl", sample_frames())
        write_lines(tmp_path / "scn.truth.jsonl", lines)
        return tmp_path / "scn"

    def test_loads_a_scenario(self, tmp_path):
        scenario = load_scenario(self.write(tmp_path, [truth_line(0), truth_line(2)]))
        assert scenario.inputs == tuple(sample_frames())
        assert scenario.target_box(1) == ((50.5, 60.25), (18.0, 18.0))
        assert scenario.first_detection_frame() == 0

    @pytest.mark.parametrize(
        "second, message",
        [
            ([truth_line(2)], "expected a JSON object"),
            (truth_line(2, objects={"name": "snitch0"}), "objects must be a list of objects"),
            (truth_line(2, objects=["snitch0"]), "objects must be a list of objects"),
            (truth_line(2, objects=[{"type": "snitch", "pos": [0, 0], "size": [1, 1]}]),
             r"objects\[0\] needs a string name and type"),
            (truth_line(2, objects=[{"name": "s", "type": 3, "pos": [0, 0], "size": [1, 1]}]),
             r"objects\[0\] needs a string name and type"),
            (truth_line(1), "frame must be 2, as in the detection stream"),
            (truth_line(True), "frame must be 2"),
            (truth_line(2, objects=[{"name": "s", "type": "snitch", "pos": [False, 0],
                                     "size": [1, 1]}]), r"objects\[0\]\.pos"),
            (truth_line(2, camera=[0, 0]),
             r"camera must be \[1\.0, -2\.0\], as in the detection stream"),
            (truth_line(2, camera=[1, True]), "camera must be a pair"),
            (truth_line(2, label="visible"),
             r"label is not a known key \(frame, camera, objects, snitch_label\)"),
            (truth_line(2, objects=[{"name": "s", "type": "snitch", "pos": [0, 0],
                                     "size": [1, 1], "box": None}]),
             r"objects\[0\]\.box is not a known key \(name, type, pos, size\)"),
            (truth_line(2, snitch_label="visble"),
             "snitch_label must be one of visible, occluded, contained, carried"),
            (truth_line(2, objects=[{"name": "c", "type": "cone", "pos": [0, 0],
                                     "size": [1, 1]}]), "objects has no snitch"),
        ],
    )
    def test_malformed_second_line_names_path_and_line(self, tmp_path, second, message):
        prefix = self.write(tmp_path, [truth_line(0), second])
        with pytest.raises(StreamFormatError, match=rf"truth\.jsonl:2: {message}"):
            load_scenario(prefix)

    def test_false_is_not_frame_zero(self, tmp_path):
        prefix = self.write(tmp_path, [truth_line(False), truth_line(2)])
        with pytest.raises(StreamFormatError, match=r"truth\.jsonl:1: frame must be 0"):
            load_scenario(prefix)

    def test_line_count_must_match_detections(self, tmp_path):
        lines = [truth_line(0), truth_line(2), truth_line(3)]
        with pytest.raises(StreamFormatError, match=r"truth\.jsonl:3: detections have only 2"):
            load_scenario(self.write(tmp_path, lines))
        with pytest.raises(StreamFormatError, match="truth has 1 frames, detections have 2"):
            load_scenario(self.write(tmp_path, lines[:1]))

    def test_eval_reports_a_nameless_object_and_exits_1(self, tmp_path, capsys):
        nameless = truth_line(2, objects=[{"type": "snitch", "pos": [0, 0], "size": [1, 1]}])
        prefix = self.write(tmp_path, [truth_line(0), nameless])
        preds = tmp_path / "preds.jsonl"
        write_predictions(preds, [None, None])
        assert main(["eval", "--scenario", str(prefix), "--predictions", str(preds)]) == 1
        err = capsys.readouterr().err
        assert "scn.truth.jsonl:2" in err and "Traceback" not in err

    def test_eval_reports_a_camera_mismatch_and_exits_1(self, tmp_path, capsys):
        prefix = self.write(tmp_path, [truth_line(0), truth_line(2, camera=[1, 2])])
        preds = tmp_path / "preds.jsonl"
        write_predictions(preds, [None, None])
        assert main(["eval", "--scenario", str(prefix), "--predictions", str(preds)]) == 1
        assert_cli_error(capsys, f"{prefix}.truth.jsonl:2", "camera must be")

    def test_eval_reports_an_unknown_label_and_exits_1(self, tmp_path, capsys):
        prefix = self.write(tmp_path, [truth_line(0), truth_line(2, snitch_label="visble")])
        preds = tmp_path / "preds.jsonl"
        write_predictions(preds, [None, None])
        assert main(["eval", "--scenario", str(prefix), "--predictions", str(preds)]) == 1
        assert_cli_error(capsys, f"{prefix}.truth.jsonl:2", "snitch_label must be one of")

    def test_eval_reports_a_frame_without_the_target_and_exits_1(self, tmp_path, capsys):
        prefix = self.write(tmp_path, [truth_line(0), truth_line(2, objects=[])])
        preds = tmp_path / "preds.jsonl"
        write_predictions(preds, [None, None])
        assert main(["eval", "--scenario", str(prefix), "--predictions", str(preds)]) == 1
        assert_cli_error(capsys, f"{prefix}.truth.jsonl:2", "objects has no snitch")

    @pytest.mark.parametrize(
        "truth_size, box_size, where, message",
        [
            ([0, -5], [18, 18], "scn.truth.jsonl:2", r"objects\[0\]\.size components must be > 0"),
            ([18, 18], [-18, 0], "preds.jsonl:2", r"box\.size components must be > 0"),
        ],
    )
    def test_eval_reports_a_non_positive_size_and_exits_1(
        self, tmp_path, capsys, truth_size, box_size, where, message
    ):
        objects = [{"name": "s", "type": "snitch", "pos": [0, 0], "size": truth_size}]
        prefix = self.write(tmp_path, [truth_line(0), truth_line(2, objects=objects)])
        preds = tmp_path / "preds.jsonl"
        write_lines(preds, [{"frame": 0, "box": None},
                            {"frame": 1, "box": {"pos": [50, 60], "size": box_size}}])
        assert main(["eval", "--scenario", str(prefix), "--predictions", str(preds)]) == 1
        assert_cli_error(capsys, tmp_path / where, message)

    def test_eval_names_the_prediction_file_on_a_frame_count_mismatch(self, tmp_path, capsys):
        prefix = self.write(tmp_path, [truth_line(0), truth_line(2)])
        preds = tmp_path / "preds.jsonl"
        write_predictions(preds, [None])
        assert main(["eval", "--scenario", str(prefix), "--predictions", str(preds)]) == 1
        assert_cli_error(capsys, preds, "prediction stream has 1 frames, scenario has 2")


# Nested deeper than the JSON decoder's recursion limit.
DEEP_JSON = "[" * 2000 + "]" * 2000


@pytest.mark.parametrize(
    "name, line, command",
    [("scn.detections.jsonl", 2, "track"), ("engine.json", None, "track"),
     ("scn.truth.jsonl", 1, "eval"), ("preds.jsonl", 2, "eval"),
     ("scenario.json", None, "simulate")],
)
def test_deeply_nested_json_is_an_error_naming_the_file(tmp_path, capsys, name, line, command):
    prefix = tmp_path / "scn"
    write_detection_stream(f"{prefix}.detections.jsonl", sample_frames())
    write_lines(tmp_path / "scn.truth.jsonl", [truth_line(0), truth_line(2)])
    write_predictions(tmp_path / "preds.jsonl", [None, None])
    write_config(tmp_path / "engine.json", {})
    path = tmp_path / name
    if line is None:
        path.write_text(DEEP_JSON, encoding="utf-8")
    else:
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = DEEP_JSON
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = {
        "track": ["track", "--detections", f"{prefix}.detections.jsonl",
                  "--config", str(tmp_path / "engine.json"),
                  "--predictions-out", str(tmp_path / "p.jsonl")],
        "eval": ["eval", "--scenario", str(prefix),
                 "--predictions", str(tmp_path / "preds.jsonl")],
        "simulate": ["simulate", "--scenario-config", str(path), "--out", str(tmp_path / "o")],
    }
    assert main(argv[command]) == 1
    where = path if line is None else f"{path}:{line}"
    assert_cli_error(capsys, where, r"invalid JSON \(maximum recursion depth exceeded")


# Finite floats, with the edges of the format drawn often: signed zeros,
# subnormals and the largest magnitudes.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308)
finite = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
vec = st.tuples(finite, finite)
positive = finite.map(abs).filter(lambda x: x > 0)
box_size = st.tuples(positive, positive)
score = st.sampled_from((-0.0, 0.0, 5e-324, 1.0)) | st.floats(0.0, 1.0)
word = st.text(max_size=6)
detection_type = st.text(min_size=1, max_size=6).filter(lambda t: not t.startswith("cand"))


@st.composite
def detection_streams(draw):
    frames = []
    for index in sorted(draw(st.sets(st.integers(0, 10**9), max_size=4))):
        ids = draw(st.lists(st.integers(-2**63, 2**63), unique=True, max_size=4))
        percepts = tuple(
            Percept(pid, Attributes(draw(detection_type), draw(vec), draw(box_size)),
                    draw(score))
            for pid in ids
        )
        actions = draw(st.lists(st.tuples(word, st.lists(word, min_size=1, max_size=3)),
                                max_size=2))
        frames.append(FrameInput(
            index, percepts, draw(vec),
            tuple(ActionEvent(name, tuple(args)) for name, args in actions),
        ))
    return frames


def round_trip(write, read, value, name="stream.jsonl"):
    """``read`` of what ``write`` wrote, in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write(path, value)
        return read(path)


class TestRoundTrips:
    """Writing then reading gives back the input. Compared by ``repr``,
    because ``==`` takes -0.0 for 0.0."""

    @settings(max_examples=50)
    @given(frames=detection_streams())
    def test_detection_streams(self, frames):
        got = round_trip(write_detection_stream, read_detection_stream, frames)
        assert repr(got) == repr(frames)

    @settings(max_examples=50)
    @given(predictions=st.lists(st.none() | st.tuples(vec, box_size), max_size=6))
    def test_predictions(self, predictions):
        got = round_trip(write_predictions, read_predictions, predictions)
        assert repr(got) == repr(predictions)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_truth_streams(self, data):
        inputs = tuple(data.draw(detection_streams()))
        labels = tuple(data.draw(st.sampled_from(SUBTASKS)) for _ in inputs)
        truth_object = st.tuples(word, word, st.tuples(vec, box_size))
        target = st.tuples(word, st.just(TARGET_TYPE), st.tuples(vec, box_size))
        # Each line holds the target, anywhere among up to two other objects.
        truth_line = st.tuples(target, st.lists(truth_object, max_size=2)).flatmap(
            lambda drawn: st.permutations([drawn[0], *drawn[1]])
        )
        objects = tuple(tuple(data.draw(truth_line)) for _ in inputs)
        scenario = Scenario(inputs, labels, objects)

        def write(path, scenario):
            write_detection_stream(f"{path}.detections.jsonl", scenario.inputs)
            write_truth_stream(f"{path}.truth.jsonl", scenario)

        got = round_trip(write, load_scenario, scenario, name="scn")
        assert repr(got) == repr(scenario)


class TestEngineConfigLoading:
    def test_presets(self):
        benchmark = load_engine_config("benchmark")
        assert benchmark.tau == 6500.0 and benchmark.kappa_anch == 0.1
        assembly = load_engine_config("assembly")
        assert assembly.kappa_anch == 0.5
        assert assembly.conf_inc == 0.05 and assembly.conf_dec == 0.1

    def test_file_round_trip(self, tmp_path):
        path = write_config(tmp_path / "config.json", {
            "tau": 900, "conf_inc": 0.2, "conf_dec": 0.3,
            "kappa_anch": 0.2, "field_of_view": [640, 480.5],
        })
        assert load_engine_config(path) == EngineConfig(
            tau=900.0, conf_inc=0.2, conf_dec=0.3,
            kappa_anch=0.2, field_of_view=(640.0, 480.5),
        )

    def test_reader_keys_are_the_engine_config_fields(self):
        # A field the reader knows but the config lacks would reach
        # ``EngineConfig`` as an unexpected keyword, a traceback.
        assert list(_ENGINE_FIELDS) == [f.name for f in dataclasses.fields(EngineConfig)]

    def test_unknown_spec_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="neither a preset"):
            load_engine_config(str(tmp_path / "missing.json"))

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"tau": -3}', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_engine_config(str(path))

    @pytest.mark.parametrize(
        "config, field",
        [
            ("{", r"invalid JSON"),
            ("[]", "expected a JSON object"),
            ({"tau": "abc"}, "tau must be a finite number"),
            ({"tau": True}, "tau must be a finite number"),
            ('{"tau": 1' + "0" * 400 + "}", "tau must be a finite number"),
            ({"tau": -3}, "tau must be > 0"),
            ({"field_of_view": [1, "x"]}, "field_of_view must be a pair"),
            # The deleted action-rule table and inference gate left no config keys.
            ({"action_rules": 5}, "action_rules is not a known key"),
            ({"action_rules": [{"action": "drop", "effect": "detach", "child_arg": True}]},
             "action_rules is not a known key"),
            ({"action_rules": [{"action": "drop", "effect": "detach", "child_arg": 0,
                                "parent": 1}]},
             "action_rules is not a known key"),
            ({"kapa_anch": 0.2}, "kapa_anch is not a known key"),
            ({"kappa_inf": 0.8}, r"kappa_inf is not a known key "
             r"\(tau, conf_inc, conf_dec, kappa_anch, field_of_view\)$"),
            ({"kappa_anch": 1.5}, r"kappa_anch must lie in \(0, 1\]"),
        ],
    )
    def test_track_rejects_a_malformed_config_file(self, tmp_path, capsys, config, field):
        detections = tmp_path / "d.jsonl"
        write_detection_stream(detections, sample_frames())
        path = write_config(tmp_path / "engine.json", config)
        assert main(["track", "--detections", str(detections), "--config", path,
                     "--predictions-out", str(tmp_path / "p.jsonl")]) == 1
        assert_cli_error(capsys, path, field)

    def test_track_runs_with_a_huge_tau(self, tmp_path, capsys):
        # Two tracks and one percept on the second frame: the capped cost
        # matrix must not scale with tau.
        detections = tmp_path / "d.jsonl"
        write_detection_stream(detections, sample_frames())
        path = write_config(tmp_path / "engine.json", {"tau": 1e308})
        preds = tmp_path / "p.jsonl"
        assert main(["track", "--detections", str(detections), "--config", path,
                     "--predictions-out", str(preds)]) == 0
        assert len(read_predictions(preds)) == 2


class TestCli:
    def test_simulate_is_byte_deterministic(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--seed", "7", "--frames", "300", "--template", "mixed"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("scenario.detections.jsonl", "scenario.truth.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_track_then_eval_pipeline_scores_perfectly(self, tmp_path, capsys):
        out = tmp_path / "scn"
        assert main(["simulate", "--seed", "3", "--template", "static",
                     "--objects", "5", "--frames", "120", "--out", str(out)]) == 0
        prefix = out / "scenario"
        world = tmp_path / "world.jsonl"
        preds = tmp_path / "preds.jsonl"
        assert main([
            "track", "--detections", f"{prefix}.detections.jsonl",
            "--tracker", "aapa", "--world-out", str(world),
            "--predictions-out", str(preds),
        ]) == 0
        csv_out = tmp_path / "results.csv"
        json_out = tmp_path / "results.json"
        assert main([
            "eval", "--scenario", str(prefix), "--predictions", str(preds),
            "--tracker-name", "aapa", "--out-csv", str(csv_out),
            "--out-json", str(json_out),
        ]) == 0
        captured = capsys.readouterr().out
        assert "aapa" in captured and "overall" in captured
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        overall = next(r for r in payload["results"] if r["subtask"] == "overall")
        assert overall["mean_iou"] == pytest.approx(1.0)
        assert overall["mean_l2"] == pytest.approx(0.0, abs=1e-9)
        header, *rows = csv_out.read_text(encoding="utf-8").strip().splitlines()
        assert header == "tracker,subtask,mean_iou,sem_iou,mean_l2,sem_l2,n_videos"
        assert rows

    def test_compare_prefers_engine_on_carried_suite(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert main(["simulate", "--seed", "11", "--template", "carried",
                     "--count", "3", "--out", str(out)]) == 0
        json_out = tmp_path / "compare.json"
        assert main(["compare", "--scenarios", str(out),
                     "--out-json", str(json_out)]) == 0
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        carried = {
            row["tracker"]: row
            for row in payload["results"]
            if row["subtask"] == "carried"
        }
        assert carried["aapa"]["mean_l2"] < carried["heuristic"]["mean_l2"]
        assert carried["aapa"]["mean_iou"] > carried["heuristic"]["mean_iou"]

    def test_compare_reports_videos_whose_target_is_never_detected(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert main(["simulate", "--seed", "11", "--template", "carried", "--frames", "220",
                     "--out", str(out), "--name", "seen"]) == 0
        assert main(["simulate", "--seed", "11", "--template", "carried", "--frames", "220",
                     "--miss-rate", "1", "--out", str(out), "--name", "unseen"]) == 0
        capsys.readouterr()
        json_out = tmp_path / "compare.json"
        assert main(["compare", "--scenarios", str(out), "--out-json", str(json_out)]) == 0
        printed = capsys.readouterr().out
        # One video is excluded, once, although both trackers skip it.
        assert json.loads(json_out.read_text(encoding="utf-8"))["excluded_videos"] == 1
        assert "excluded videos (target never detected): 1\n" in printed

    def test_track_heuristic_writes_predictions_only(self, tmp_path, capsys):
        out = tmp_path / "scn"
        assert main(["simulate", "--seed", "1", "--template", "static",
                     "--objects", "4", "--frames", "60", "--out", str(out)]) == 0
        preds = tmp_path / "heur.jsonl"
        assert main([
            "track", "--detections", f"{out / 'scenario'}.detections.jsonl",
            "--tracker", "heuristic", "--predictions-out", str(preds),
        ]) == 0
        assert len(read_predictions(preds)) == 60
        assert main([
            "track", "--detections", f"{out / 'scenario'}.detections.jsonl",
        ]) == 1
        assert "nothing to write" in capsys.readouterr().err
        # world output is an engine-only feature
        assert main([
            "track", "--detections", f"{out / 'scenario'}.detections.jsonl",
            "--tracker", "heuristic", "--world-out", str(tmp_path / "w.jsonl"),
        ]) == 1

    def test_compare_names_the_file_and_frame_of_an_engine_error(
        self, tmp_path, capsys, monkeypatch
    ):
        reject_frames_of_two_percepts(monkeypatch)
        cube = {"id": 0, "type": "cube", "score": 1.0, "pos": [10, 10], "size": [30, 30]}
        truth = {"camera": [0, 0], "snitch_label": "visible",
                 "objects": [{"name": "snitch0", "type": "snitch", "pos": [10, 10],
                              "size": [18, 18]}]}
        write_lines(tmp_path / "a.detections.jsonl", [
            {"frame": 0, "camera": [0, 0], "detections": [cube], "actions": []},
        ])
        write_lines(tmp_path / "a.truth.jsonl", [dict(truth, frame=0)])
        path = tmp_path / "b.detections.jsonl"
        write_lines(path, [
            {"frame": 0, "camera": [0, 0], "detections": [cube], "actions": []},
            {"frame": 4, "camera": [0, 0], "detections": [cube, dict(cube, id=1)],
             "actions": []},
        ])
        write_lines(tmp_path / "b.truth.jsonl", [dict(truth, frame=0), dict(truth, frame=4)])
        assert main(["compare", "--scenarios", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: frame 4: {INJECTED}"), err
        assert "Traceback" not in err

    def test_track_reports_costs_too_large_to_pad_and_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        # Padding the assignment once raised this error on a far cube; the
        # error is injected now, and the report must still name the file and
        # the frame, exit 1 and show no traceback.
        reject_frames_of_two_percepts(monkeypatch, TOO_LARGE_TO_PAD)
        path = write_far_cube_stream(tmp_path, 1e154)
        assert main(["track", "--detections", str(path),
                     "--predictions-out", str(tmp_path / "p.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: frame 1: {TOO_LARGE_TO_PAD}"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("x", [1e154], ids=["too-large-to-pad"])
    def test_track_on_overflowing_costs_prints_only_the_error(
        self, tmp_path, capsys, monkeypatch, x
    ):
        reject_frames_of_two_percepts(monkeypatch)
        path = write_far_cube_stream(tmp_path, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would escape main
            assert main(["track", "--detections", str(path),
                         "--predictions-out", str(tmp_path / "p.jsonl")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {path}: frame 1: {INJECTED}"], lines

    @pytest.mark.parametrize("x", [1e154, 1e200], ids=["1e154", "1e200"])
    def test_track_on_overflowing_costs_leaves_the_far_percept_unmatched(
        self, tmp_path, capsys, x
    ):
        # The far cube costs about 1e308 against the track, or overflows to
        # inf: at or above tau either way, so it is never kept.
        path = write_far_cube_stream(tmp_path, x)
        world = tmp_path / "w.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would escape main
            assert main(["track", "--detections", str(path), "--world-out", str(world)]) == 0
        assert capsys.readouterr().err == ""
        last = json.loads(world.read_text(encoding="utf-8").splitlines()[-1])
        assert [(a["id"], a["pos"]) for a in last["anchors"]] == [("cube0", [10.0, 10.0])]

    @pytest.mark.parametrize(
        "outputs, message",
        [
            ([], "error: nothing to write"),
            (["--tracker", "heuristic", "--world-out", "w.jsonl"],
             "error: --world-out is only available with --tracker=aapa"),
        ],
        ids=["no-output", "heuristic-world"],
    )
    def test_track_checks_its_arguments_before_reading(self, tmp_path, capsys, outputs, message):
        missing = tmp_path / "nope.jsonl"
        assert main(["track", "--detections", str(missing), "--config", str(missing),
                     *outputs]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message), err
        assert not (tmp_path / "w.jsonl").exists()

    def test_run_tracker_rejects_an_unknown_tracker(self):
        # The CLI's --tracker choices stop this before run_tracker; a Python caller is not.
        with pytest.raises(ValueError, match="unknown tracker 'kalman'"):
            run_tracker([], "kalman", EngineConfig())

    def test_missing_files_and_flags_fail_nonzero(self, tmp_path, capsys):
        assert main(["track", "--detections", str(tmp_path / "nope.jsonl"),
                     "--predictions-out", str(tmp_path / "p.jsonl")]) == 1
        assert main(["compare", "--scenarios", str(tmp_path)]) == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["track", "--tracker", "wrong"])
        assert excinfo.value.code != 0

    @pytest.mark.parametrize(
        "args",
        [
            ["track", "--detections", "d.jsonl"],
            ["eval", "--scenario", "s", "--predictions", "p.jsonl"],
            ["compare", "--scenarios", "dir"],
        ],
    )
    def test_the_target_is_not_an_option(self, capsys, args):
        # Predictions and scores are for metrics.TARGET_TYPE only.
        with pytest.raises(SystemExit) as excinfo:
            main(args + ["--target", "cube"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --target cube" in capsys.readouterr().err

    def test_simulate_from_scenario_config_file(self, tmp_path, capsys):
        scenario = {
            "seed": 9,
            "frames": 120,
            "objects": [
                {"name": "cone0", "type": "cone", "size": [40, 40], "start": [60, 120]},
                {"name": "snitch0", "type": "snitch", "size": [18, 18], "start": [180, 120]},
            ],
            "script": [
                {"kind": "contain", "subject": "cone0", "start": 10, "end": 40,
                 "target": "snitch0"},
                {"kind": "slide", "subject": "cone0", "start": 50, "end": 90,
                 "dest": [180, 60]},
            ],
        }
        config_path = tmp_path / "scenario.json"
        config_path.write_text(json.dumps(scenario), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario-config", str(config_path),
                     "--out", str(out)]) == 0
        loaded = load_scenario(out / "scenario")
        assert "carried" in loaded.labels
        actions = [a for frame in loaded.inputs for a in frame.actions]
        assert actions and actions[0].name == "contain"

    def test_simulate_rejects_infeasible_scenario_config(self, tmp_path, capsys):
        scenario = {
            "seed": 1,
            "frames": 60,
            "objects": [
                {"name": "cone0", "type": "cone", "size": [40, 40], "start": [60, 120]},
                {"name": "snitch0", "type": "snitch", "size": [18, 18], "start": [180, 120]},
            ],
            "script": [
                {"kind": "contain", "subject": "cone0", "start": 10, "end": 40,
                 "target": "ball7"},
            ],
        }
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["simulate", "--scenario-config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 1
        assert "event 0" in capsys.readouterr().err

    @pytest.mark.parametrize("template", ["static", "camera"])
    @pytest.mark.parametrize("objects", [1, 12])
    def test_grid_templates_take_2_to_8_objects(self, tmp_path, capsys, template, objects):
        assert main(["simulate", "--template", template, "--objects", str(objects),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {template} template supports 2..8 objects"), err

    @pytest.mark.parametrize(
        "source, named",
        [
            (["--template", "mixed"], "the mixed template"),
            (["--template", "carried"], "the carried template"),
            (["--template", "random"], "the random template"),
            ([], "the random template"),
            (["--scenario-config", "unread.json"], "a scenario config file"),
        ],
    )
    def test_objects_is_an_error_outside_the_grid_templates(
        self, tmp_path, capsys, source, named
    ):
        out = tmp_path / "out"
        assert main(["simulate", *source, "--objects", "3", "--out", str(out)]) == 1
        message = (
            f"--objects applies to the static and camera templates, not to {named}"
            if "--scenario-config" in source
            else f"{named} takes no object count"
        )
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_grid_templates_default_to_8_objects(self, tmp_path, capsys):
        assert main(["simulate", "--template", "static", "--frames", "20",
                     "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "scenario.meta.json").read_text(encoding="utf-8"))
        assert len(meta["objects"]) == 8

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_a_count_below_one_is_an_error(self, tmp_path, capsys, count):
        out = tmp_path / "out"
        assert main(["simulate", "--count", count, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --count must be >= 1, got {count}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_a_non_finite_jitter_sigma_is_an_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "out"
        assert main(["simulate", "--template", "carried", "--jitter-sigma", sigma,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: jitter_sigma must be >= 0 and finite"), err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            pytest.param(["--miss-rate", "0.5", "--burst", str(2**63), "--frames", "60"], None,
                         r"flicker_burst_length must be below 2\*\*63", id="burst-flag"),
            pytest.param([], {"seed": 1, "frames": 60,
                              "noise": {"miss_rate": 0.5, "flicker_burst_length": 2**63}},
                         r"flicker_burst_length must be below 2\*\*63", id="burst-file"),
            pytest.param([], {"seed": 1, "frames": 60, "viewport": [100, 100]},
                         "the random layout does not fit in viewport", id="layout-viewport"),
            pytest.param([], {"seed": 1, "frames": 10, "viewport": [30, 30], "script": [],
                              "objects": [{"name": "snitch0", "type": "snitch",
                                           "size": [10, 10], "start": [15, 15]}],
                              "noise": {"ghost_rate": 0.5}},
                         "ghosts need a viewport of at least 40 x 40", id="ghost-viewport"),
            pytest.param([], {"seed": 1, "frames": 60, "viewport": [0, 0]},
                         "viewport must be positive", id="empty-viewport"),
            pytest.param([], {"seed": 1, "frames": 300, "viewport": [130, 130]},
                         "could not place objects without crowding", id="crowded-layout"),
            pytest.param([], {"seed": 1, "viewport": [120, 120],
                              "objects": [{"name": "cone0", "type": "cone",
                                           "size": [40, 40], "start": [60, 60]},
                                          {"name": "snitch0", "type": "snitch",
                                           "size": [18, 18], "start": [30, 90]}]},
                         "no feasible destination at distance", id="no-destination"),
            pytest.param(["--template", "carried", "--jitter-sigma", "1e308", "--frames", "220"],
                         None, r".*scenario\.detections\.jsonl:\d+: Out of range float",
                         id="infinite-detections"),
        ],
    )
    def test_simulate_fails_with_one_error_line(self, tmp_path, capsys, flags, config, message):
        if config is not None:  # a scenario file's error names the file
            path = write_config(tmp_path / "scenario.json", config)
            flags, message = ["--scenario-config", path], f"{re.escape(path)}: {message}"
        assert main(["simulate", *flags, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and re.match(f"error: {message}", lines[0]), err
        assert "Traceback" not in err

    def test_a_failed_simulate_leaves_no_partial_stream(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--template", "carried", "--jitter-sigma", "1e308",
                     "--frames", "220", "--out", str(out)]) == 1
        assert list(out.iterdir()) == []
        assert main(["compare", "--scenarios", str(out)]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: no *.detections.jsonl files under {out}\n"
        )

    def test_load_scenario_matches_generated_record(self, tmp_path, capsys):
        noisy = NoiseConfig(miss_rate=0.1, ghost_rate=0.05, jitter_sigma=1.5)
        noise_flags = ["--miss-rate", "0.1", "--ghost-rate", "0.05", "--jitter-sigma", "1.5"]
        for template in TEMPLATES:
            for seed in range(2):
                for noise, flags in ((NoiseConfig(), []), (noisy, noise_flags)):
                    out = tmp_path / f"{template}_{seed}_{len(flags)}"
                    assert main(["simulate", "--seed", str(seed), "--template", template,
                                 "--out", str(out), *flags]) == 0
                    record = generate(build_template(template, seed, noise=noise))
                    assert load_scenario(out / "scenario") == record.scenario


CONE = {"name": "cone0", "type": "cone", "size": [40, 40], "start": [60, 120]}
SNITCH = {"name": "snitch0", "type": "snitch", "size": [18, 18], "start": [180, 120]}
SLIDE = {"kind": "slide", "subject": "cone0", "start": 10, "end": 20, "dest": [100, 120]}


def scenario_json(**changes) -> dict:
    return dict({"seed": 1, "frames": 40, "objects": [CONE, SNITCH], "script": [SLIDE]},
                **changes)


class TestScenarioConfigFiles:
    def simulate(self, tmp_path, config) -> tuple[int, str]:
        path = write_config(tmp_path / "scenario.json", config)
        return main(["simulate", "--scenario-config", path, "--out", str(tmp_path / "out")]), path

    @pytest.mark.parametrize(
        "config, field",
        [
            ("{", "invalid JSON"),
            ("[1, 2]", "expected a JSON object"),
            (scenario_json(objects=[CONE, {k: SNITCH[k] for k in ("name", "size", "start")}]),
             r"objects\[1\]\.type must be a string"),
            (scenario_json(objects=[dict(CONE, cell=[0, 0]), SNITCH]),
             r"objects\[0\]\.cell is not a known key"),
            (scenario_json(objects=5), "objects must be a list of objects"),
            (scenario_json(noise={"bogus": 1}), r"noise\.bogus is not a known key"),
            (scenario_json(noise={"miss_rate": "0.1"}), r"noise\.miss_rate must be a finite"),
            (scenario_json(noise={"flicker_burst_length": 2.0}),
             r"noise\.flicker_burst_length must be an integer"),
            (scenario_json(noise=[0.1]), "noise must be an object"),
            (scenario_json(seed=True), "seed must be an integer"),
            (scenario_json(seed=-1), "seed must be >= 0"),
            (scenario_json(frames="12"), "frames must be an integer"),
            (scenario_json(viewport=[360]), "viewport must be a pair"),
            (scenario_json(camera=[[0, [0, 0]], [10, "x"]]), r"camera\[1\]\[1\] must be a pair"),
            (scenario_json(camera=[[0, 0, 0]]), r"camera must be a non-empty list of \[frame"),
            (scenario_json(camera=[]), "camera must be a non-empty list"),
            (scenario_json(camera=5), "camera must be a non-empty list"),
            (scenario_json(script=[dict(SLIDE, dest=[1, 2, 3])]), r"script\[0\]\.dest must be a pair"),
            (scenario_json(script=[dict(SLIDE, end=20.0)]), r"script\[0\]\.end must be an integer"),
            (scenario_json(script=[dict(SLIDE, speed=2)]), r"script\[0\]\.speed is not a known key"),
            (scenario_json(counts={"cone": 3}), "counts is not a known key"),
            (scenario_json(event_mix={"slide": 1.0}), "event_mix is not a known key"),
            (scenario_json(cover_drop_fraction=0.8), "cover_drop_fraction is not a known key"),
            (scenario_json(objects=[dict(CONE, size=[0, 5]), SNITCH]),
             r"objects\[0\]\.size components must be > 0"),
            # Errors that generation finds name the file too.
            (scenario_json(frames=1), "need at least two frames"),
            (scenario_json(noise={"miss_rate": 2.0}), r"miss_rate must lie in \[0, 1\], got 2.0"),
            (scenario_json(script=[dict(SLIDE, subject="ball7")]),
             "event 0: unknown subject 'ball7'"),
            (scenario_json(camera=[[10, [0, 0]], [5, [0, 0]]]),
             "camera waypoint 1: frame 5 must come after 10"),
        ],
    )
    def test_malformed_file_names_path_and_field(self, tmp_path, capsys, config, field):
        code, path = self.simulate(tmp_path, config)
        assert code == 1
        assert_cli_error(capsys, path, field)

    @pytest.mark.parametrize("source", ["mixed", "random", "file"])
    def test_a_negative_seed_flag_is_an_error(self, tmp_path, capsys, source):
        # A file without its own seed takes the one from --seed.
        path = write_config(tmp_path / "scenario.json",
                            {k: v for k, v in scenario_json().items() if k != "seed"})
        flags = ["--scenario-config", path] if source == "file" else ["--template", source]
        assert main(["simulate", "--seed", "-1", *flags, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0"), err
        assert "Traceback" not in err

    def test_seed_flag_is_an_error_with_a_seeded_file(self, tmp_path, capsys):
        # The file owns the fields it sets: its seed is not silently overridden or dropped.
        path = write_config(tmp_path / "scenario.json", scenario_json())
        out = tmp_path / "out"
        for count in ("1", "2"):
            assert main(["simulate", "--scenario-config", path, "--seed", "5",
                         "--count", count, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {path}: sets seed, so --seed does not apply\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize(
        "config, flags, seeds",
        [
            (scenario_json(), ["--count", "3"], [1, 2, 3]),
            ({k: v for k, v in scenario_json().items() if k != "seed"},
             ["--seed", "5", "--count", "2"], [5, 6]),
        ],
        ids=["file-seed", "flag-seed"],
    )
    def test_count_steps_from_the_one_seed(self, tmp_path, capsys, config, flags, seeds):
        path = write_config(tmp_path / "scenario.json", config)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario-config", path, *flags, "--out", str(out)]) == 0
        recorded = [json.loads(meta.read_text(encoding="utf-8"))["seed"]
                    for meta in sorted(out.glob("*.meta.json"))]
        assert recorded == seeds

    def test_meta_records_the_generated_seed_and_noise(self, tmp_path, capsys):
        noise = {"miss_rate": 0.1, "ghost_rate": 0.05, "jitter_sigma": 0.5,
                 "flicker_burst_length": 2}
        for given, recorded in [(noise, dict(noise, ghost_clearance=0.0)),
                                (dict(noise, ghost_clearance=60), dict(noise, ghost_clearance=60.0))]:
            assert self.simulate(tmp_path, scenario_json(seed=1234, noise=given))[0] == 0
            meta = json.loads((tmp_path / "out" / "scenario.meta.json").read_text(encoding="utf-8"))
            assert (meta["seed"], meta["noise"], meta["template"]) == (1234, recorded, "file")
        # A template run records its flags, as before.
        out = tmp_path / "template"
        assert main(["simulate", "--template", "static", "--seed", "5", "--frames", "20",
                     "--miss-rate", "0.2", "--out", str(out)]) == 0
        meta = json.loads((out / "scenario.meta.json").read_text(encoding="utf-8"))
        assert meta["seed"] == 5
        assert meta["noise"] == {"miss_rate": 0.2, "ghost_rate": 0.0, "jitter_sigma": 0.0,
                                 "flicker_burst_length": 1, "ghost_clearance": 0.0}

    @pytest.mark.parametrize(
        "flag, value",
        [("--template", "mixed"), ("--miss-rate", "0.1"), ("--ghost-rate", "0.1"),
         ("--jitter-sigma", "1"), ("--burst", "2")],
    )
    def test_template_flags_are_errors_with_a_scenario_config_file(
        self, tmp_path, capsys, flag, value
    ):
        path = write_config(tmp_path / "scenario.json", scenario_json())
        out = tmp_path / "out"
        assert main(["simulate", "--scenario-config", path, flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} applies to the templates, not to a scenario config file\n"
        )
        assert not out.exists()

    def test_frames_is_an_error_with_a_scenario_config_file(self, tmp_path, capsys):
        # The file sets its own frame count; a --frames flag is not silently dropped.
        path = write_config(tmp_path / "scenario.json", scenario_json())
        out = tmp_path / "out"
        assert main(["simulate", "--scenario-config", path, "--frames", "120",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --frames applies to the templates, not to a scenario config file\n"
        )
        assert not out.exists()
        # Without the flag the file's 40 frames are written; a template defaults to 300.
        assert main(["simulate", "--scenario-config", path, "--out", str(out)]) == 0
        assert main(["simulate", "--template", "random", "--out", str(tmp_path / "random")]) == 0
        for directory, frames in [(out, 40), (tmp_path / "random", 300)]:
            meta = json.loads((directory / "scenario.meta.json").read_text(encoding="utf-8"))
            assert meta["frames"] == frames


def readme_json_blocks() -> list[dict]:
    """Every fenced ``json`` block of README.md, parsed."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.DOTALL)]


def test_readme_config_examples_run(tmp_path, capsys):
    # The documented scenario and engine config formats still run as shown.
    blocks = readme_json_blocks()
    (scenario,) = [block for block in blocks if "script" in block]
    (engine,) = [block for block in blocks if "tau" in block]
    out = tmp_path / "out"
    assert main(["simulate", "--scenario-config", write_config(tmp_path / "sc.json", scenario),
                 "--out", str(out)]) == 0
    meta = json.loads((out / "scenario.meta.json").read_text(encoding="utf-8"))
    assert meta["frames"] == 120
    assert main(["track", "--detections", str(out / "scenario.detections.jsonl"),
                 "--config", write_config(tmp_path / "engine.json", engine),
                 "--predictions-out", str(tmp_path / "p.jsonl")]) == 0
