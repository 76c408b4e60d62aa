"""The readers' and writers' common-case paths, pinned against their references.

The writers format each line themselves. Their output must equal what the
encoder makes of the line's dict form, including the error of a line the
encoder rejects, and the files ``simulate`` writes are pinned by hash. The
readers accept a common entry without the labelled field checks. What they
read, or the error they raise, must equal what the labelled checks alone
give, and the common entries of simulated streams must not reach those
checks or the encoder at all.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import _crowd_scenario
from test_io_cli import EDGE_FLOATS
from test_reader_fuzz import HOSTILE, _encode

from anchorkit import io_jsonl
from anchorkit.cli import main
from anchorkit.core import ActionEvent, Anchor, Attributes, FrameInput, Percept
from anchorkit.io_jsonl import (
    _ENCODER,
    StreamFormatError,
    load_engine_config,
    load_scenario,
    write_detection_stream,
    write_truth_stream,
    write_world_stream,
)
from anchorkit.metrics import Scenario
from anchorkit.pipeline import run_tracker
from anchorkit.simulate import generate, scenario_config_from_json

# sha256 of the detection and truth files of a noiseless and a noisy scenario.
SIMULATED = {
    ("carried", "1", "220", ()): (
        "6d7277a8fe2cb7124f0c9952a8a5474279e74dd3f908e4f06d269d9c3764ad12",
        "19e84e580e2852b4bcaa249033786c003b7c28efa90eb6201045f6c87ab29ef7",
    ),
    ("random", "1", "300", ("--miss-rate", "0.1", "--ghost-rate", "0.1",
                            "--jitter-sigma", "1.0")): (
        "88afd879ad5f75e488de300d7db62b22b8acc6bab62b4faa15ce3e444cb2b796",
        "22252fc9bfb78cf8118e0eaaf4d9977202a4538ab71963a96edb16cf8b67735f",
    ),
}


@pytest.mark.parametrize("case", sorted(SIMULATED), ids=["carried-clean", "random-noisy"])
def test_simulated_files_are_pinned(tmp_path, capsys, case):
    template, seed, frames, noise = case
    assert main(["simulate", "--out", str(tmp_path), "--template", template, "--seed", seed,
                 "--frames", frames, *noise]) == 0
    hashes = tuple(
        hashlib.sha256((tmp_path / f"scenario.{kind}.jsonl").read_bytes()).hexdigest()
        for kind in ("detections", "truth")
    )
    assert hashes == SIMULATED[case]


# Finite floats, the only numbers the writers format themselves besides
# ints, and with them values the encoder rejects (1.8e308 is infinite) or
# that are not exact floats. Half the examples draw only finite floats, so
# that most of their lines are formatted directly.
PLAIN = st.sampled_from(EDGE_FLOATS + (-0.0, 5e-324)) | st.floats(allow_nan=False,
                                                                 allow_infinity=False)
ANY = PLAIN | st.sampled_from((1.8e308, -1.8e308, math.nan)) | st.integers(-2**70, 2**70) | (
    st.booleans()
)
numbers = st.sampled_from((PLAIN, ANY))
big_int = st.sampled_from((0, -1, 2**63, -2**63, 10**30)) | st.integers(-2**70, 2**70)
text = st.sampled_from(('"', "\\", "\x00\x1f\n\t", "\U0001f600", "\ud800", "cone", "é")) | (
    st.text(max_size=5)
)


@st.composite
def frame_inputs(draw, number):
    vec = st.tuples(number, number)
    percepts = tuple(
        Percept(draw(big_int), Attributes(draw(text), draw(vec), draw(vec)), draw(number))
        for _ in range(draw(st.integers(0, 3)))
    )
    actions = tuple(
        ActionEvent(draw(text), tuple(draw(st.lists(text, min_size=1, max_size=3))))
        for _ in range(draw(st.integers(0, 2)))
    )
    return FrameInput(draw(big_int), percepts, draw(vec), actions)


def detection_dict(frame: FrameInput) -> dict:
    return {
        "frame": frame.frame_index,
        "camera": list(frame.camera_pose),
        "detections": [
            {"id": p.percept_id, "type": p.attributes.object_type, "score": p.detector_score,
             "pos": list(p.attributes.position), "size": list(p.attributes.size)}
            for p in frame.percepts
        ],
        "actions": [{"name": a.name, "args": list(a.arguments)} for a in frame.actions],
    }


def anchor_dict(a: Anchor) -> dict:
    entry = {"id": a.anchor_id, "type": a.attributes.object_type,
             "pos": list(a.attributes.position), "size": list(a.attributes.size),
             "conf": a.confidence, "status": a.status}
    if a.parent is not None:
        entry["parent"] = a.parent
    return entry


def assert_written_as_encoded(write, items, dicts) -> None:
    """``write(path, items)`` writes ``_ENCODER.encode`` of each dict, one per
    line, or raises the encoder's error for the first dict it rejects."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.jsonl"
        expected = []
        for line_no, payload in enumerate(dicts, start=1):
            try:
                expected.append(_ENCODER.encode(payload) + "\n")
            except ValueError as exc:
                with pytest.raises(StreamFormatError) as raised:
                    write(path, items)
                assert str(raised.value) == f"{path}:{line_no}: {exc}"
                assert not path.exists()
                return
        write(path, items)
        assert path.read_bytes() == "".join(expected).encode("utf-8")


@settings(max_examples=200)
@given(data=st.data())
def test_detection_lines_equal_the_encoder(data):
    frames = data.draw(st.lists(frame_inputs(data.draw(numbers)), max_size=3))
    assert_written_as_encoded(write_detection_stream, frames, map(detection_dict, frames))


@settings(max_examples=200)
@given(data=st.data())
def test_world_lines_equal_the_encoder(data):
    number = data.draw(numbers)
    vec = st.tuples(number, number)
    anchor = st.builds(
        Anchor, text, st.builds(Attributes, text, vec, vec), number, text, big_int,
        st.none() | text,
    )
    frames = data.draw(st.lists(st.tuples(big_int, st.lists(anchor, max_size=3)), max_size=3))
    dicts = [{"frame": index, "anchors": [anchor_dict(a) for a in anchors]}
             for index, anchors in frames]
    assert_written_as_encoded(write_world_stream, frames, dicts)


@settings(max_examples=200)
@given(data=st.data())
def test_truth_lines_equal_the_encoder(data):
    number = data.draw(numbers)
    vec = st.tuples(number, number)
    inputs = tuple(data.draw(st.lists(frame_inputs(number), max_size=3)))
    labels = tuple(data.draw(text) for _ in inputs)
    truth_object = st.tuples(text, text, st.tuples(vec, vec))
    objects = tuple(tuple(data.draw(st.lists(truth_object, max_size=3))) for _ in inputs)
    dicts = [
        {"frame": frame.frame_index, "camera": list(frame.camera_pose),
         "objects": [{"name": name, "type": kind, "pos": list(pos), "size": list(size)}
                     for name, kind, (pos, size) in line],
         "snitch_label": label}
        for frame, label, line in zip(inputs, labels, objects)
    ]
    assert_written_as_encoded(write_truth_stream, Scenario(inputs, labels, objects), dicts)


@pytest.mark.parametrize(
    "frame",
    [FrameInput(0, (Percept(0, Attributes("cone", (1.0, 2.0, 3.0), (4.0, 5.0))),)),
     FrameInput(10**5000, ())],
    ids=["three-coordinates", "int-too-long-to-print"],
)
def test_records_the_formatter_does_not_take_go_to_the_encoder(frame):
    assert_written_as_encoded(write_detection_stream, [frame], [detection_dict(frame)])


# ---------------------------------------------------------------------------
# Readers


def labelled_checks_only():
    """Patch every common-entry check to decline, so that the labelled
    checks read every entry."""
    decline = {name: lambda *args: None
               for name in ("_plain_pair", "_plain_percept", "_plain_truth_object")}
    return mock.patch.multiple(io_jsonl, **decline)


def base_files() -> dict[str, list[dict]]:
    detections = [
        {"frame": f, "camera": [2.5 * f, -0.0],
         "detections": [{"id": i, "type": kind, "score": 0.75, "pos": [100.5 + f, 80.25 * i],
                         "size": [40.0, 30.5]}
                        for i, kind in enumerate(("cone", "snitch", "cube"))],
         "actions": [{"name": "contain", "args": ["cone0", "snitch0"]}] if f == 1 else []}
        for f in range(2)
    ]
    truth = [
        {"frame": f, "camera": [2.5 * f, -0.0], "snitch_label": "visible",
         "objects": [{"name": name, "type": name[:-1], "pos": [50.5, 60.0 + f],
                      "size": [18.0, 18.5]}
                     for name in ("cone0", "snitch0")]}
        for f in range(2)
    ]
    return {"detections": detections, "truth": truth}


# What an edit puts in place of a value: the fuzz test's hostile values,
# ints that repeat a detection's id, numbers and lists near the checks'
# edges, ``INT``, which turns the value's floats into ints, and ``DELETE``.
INT, DELETE = object(), object()
REPLACEMENTS = HOSTILE + (
    INT, DELETE, 0, 1, -0.0, 0.0, 40, -5.0, 1.5, math.nan, math.inf, None, "candle", "cone",
    [1.5], [1.5, 2.5, 3.5], [40, 30], [40.0, 0.0], [-0.0, 1.0], [1e308, 1e308],
)


def as_ints(value):
    if isinstance(value, list):
        return [as_ints(item) for item in value]
    return int(value) if type(value) is float and math.isfinite(value) else value


def editable(files: dict[str, list[dict]]) -> list[dict]:
    """The objects that an edit may change: each line and each of its entries."""
    found = []
    for kind, lines in sorted(files.items()):
        for line in lines:
            entries = line.get("detections" if kind == "detections" else "objects")
            found += [line, *(e for e in entries if isinstance(e, dict))] if isinstance(
                entries, list) else [line]
    return found


def edit(target: dict, key: str, value) -> None:
    if value is DELETE:
        target.pop(key, None)
    else:
        target[key] = as_ints(target.get(key)) if value is INT else copy.deepcopy(value)


def read_outcome(prefix: Path) -> str:
    """The ``repr`` of the loaded scenario, or the error's text."""
    try:
        return repr(load_scenario(prefix))
    except StreamFormatError as exc:
        return f"error: {exc}"


def write_files(files: dict[str, list[dict]], directory: Path) -> Path:
    """Write ``<directory>/s.<kind>.jsonl`` for each kind; return the prefix."""
    prefix = directory / "s"
    for kind, lines in files.items():
        text = b"".join(_encode(line) + b"\n" for line in lines)
        Path(f"{prefix}.{kind}.jsonl").write_bytes(text)
    return prefix


def assert_read_as_labelled(files: dict[str, list[dict]], directory: Path) -> None:
    prefix = write_files(files, directory)
    got = read_outcome(prefix)
    with labelled_checks_only():
        assert got == read_outcome(prefix), files


def test_each_single_edit_reads_as_the_labelled_checks_read(tmp_path):
    for i, target in enumerate(editable(base_files())):
        for key in [*target, "note"]:  # "note" is not a known key
            for value in REPLACEMENTS:
                files = base_files()
                edit(editable(files)[i], key, value)
                assert_read_as_labelled(files, tmp_path)


@settings(max_examples=200)
@given(data=st.data())
def test_edited_files_read_as_the_labelled_checks_read(data):
    files = base_files()
    for _ in range(data.draw(st.integers(1, 4))):
        target = data.draw(st.sampled_from(editable(files)))
        edit(target, data.draw(st.sampled_from([*target, "note"])),
             data.draw(st.sampled_from(REPLACEMENTS)))
    with tempfile.TemporaryDirectory() as tmp:
        assert_read_as_labelled(files, Path(tmp))


def test_the_unedited_files_read_without_the_labelled_checks(tmp_path):
    # So the edits above compare the common-entry path with the labelled checks.
    assert_no_labelled_check(write_files(base_files(), tmp_path))


def assert_no_labelled_check(prefix) -> None:
    """``load_scenario(prefix)`` calls none of the labelled field checks."""
    checks = ("integer", "pair", "size", "number")
    spies = {name: mock.Mock(side_effect=getattr(io_jsonl, name)) for name in checks}
    with mock.patch.multiple(io_jsonl, **spies):
        load_scenario(prefix)
        calls = {name: spy.call_count for name, spy in spies.items() if spy.call_count}
    assert calls == {}


@functools.cache
def crowd() -> Scenario:
    """A simulated crowd-style scene: 48 objects under a panning camera,
    with light noise."""
    return generate(scenario_config_from_json(_crowd_scenario(0))).scenario


def write_crowd(tmp_path) -> Path:
    """Write the crowd scene's detection and truth files and the world
    stream the engine tracks in it; return the scene's prefix."""
    prefix = tmp_path / "crowd"
    write_detection_stream(f"{prefix}.detections.jsonl", crowd().inputs)
    write_truth_stream(f"{prefix}.truth.jsonl", crowd())
    config = replace(load_engine_config("benchmark"), field_of_view=(1280.0, 720.0))
    write_world_stream(tmp_path / "world.jsonl", run_tracker(crowd().inputs, "aapa", config).world)
    return prefix


def test_simulated_streams_read_without_the_labelled_checks(tmp_path):
    prefix = write_crowd(tmp_path)
    assert_no_labelled_check(prefix)
    # The spies see the labelled checks where an entry needs them.
    path = tmp_path / "crowd.detections.jsonl"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"camera":[0.0,', '"camera":[0,', 1), encoding="utf-8")
    with pytest.raises(AssertionError, match="pair"):
        assert_no_labelled_check(prefix)


def test_simulated_streams_are_written_without_the_encoder(tmp_path):
    with mock.patch.object(_ENCODER, "encode", wraps=_ENCODER.encode) as encode:
        write_crowd(tmp_path)
        assert encode.call_count == 0
        # The spy sees the encoder where a line needs it.
        write_world_stream(tmp_path / "w.jsonl",
                           [(0, (Anchor("cone0", Attributes("cone", (1, 2), (3, 4)), 0.5,
                                        "visible", 0),))])
        assert encode.call_count == 1
