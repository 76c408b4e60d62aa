"""Mutated input files never crash a command, and every rejection names a file.

Small valid detection, truth and prediction files are mutated: keys deleted,
hostile JSON values put in place of values or whole lines, bytes flipped, and
lines dropped or duplicated. ``track``, ``eval`` and ``compare`` then run on
them through ``cli.main``. Each must exit 0, or exit 1 with an error that
names one of the files.
"""

from __future__ import annotations

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from anchorkit.cli import main

HOSTILE = (True, 1e308, 10**400, "", "cand", [], {}, [0, 0])

CAMERAS = ([0, 0], [2, 0], [2, 0])


def _detection_line(frame: int) -> dict:
    cone = {"id": 0, "type": "cone", "score": 0.9, "pos": [100 + frame, 80], "size": [40, 40]}
    snitch = {"id": 1, "type": "snitch", "score": 1.0, "pos": [50, 60], "size": [18, 18]}
    actions = [{"name": "contain", "args": ["cone0", "snitch0"]}] if frame == 1 else []
    detections = [cone, snitch] if frame < 2 else [cone]
    return {"frame": frame, "camera": CAMERAS[frame], "detections": detections,
            "actions": actions}


def _truth_line(frame: int) -> dict:
    return {"frame": frame, "camera": CAMERAS[frame], "snitch_label": "visible",
            "objects": [{"name": "cone0", "type": "cone", "pos": [100 + frame, 80],
                         "size": [40, 40]},
                        {"name": "snitch0", "type": "snitch", "pos": [50, 60],
                         "size": [18, 18]}]}


def valid_files() -> dict[str, list]:
    # A deep copy: mutations must not reach the shared camera lists.
    return copy.deepcopy({
        "s.detections.jsonl": [_detection_line(f) for f in range(3)],
        "s.truth.jsonl": [_truth_line(f) for f in range(3)],
        "preds.jsonl": [{"frame": 0, "box": {"pos": [50, 60], "size": [18, 18]}},
                        {"frame": 1, "box": None},
                        {"frame": 2, "box": {"pos": [101, 80], "size": [40, 40]}}],
    })


def _encode(line) -> bytes:
    # A flipped line is already bytes; any other line is a JSON value.
    return line if isinstance(line, bytes) else json.dumps(line).encode()


def _slots(value, out: list) -> list:
    """Every (container, key) pair inside a JSON value, depth first."""
    if isinstance(value, (dict, list)):
        for key in list(value.keys() if isinstance(value, dict) else range(len(value))):
            out.append((value, key))
            _slots(value[key], out)
    return out


def mutate(data, files: dict[str, list]) -> None:
    lines = files[data.draw(st.sampled_from(sorted(files)))]
    if not lines:
        return
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(("delete", "insert", "flip", "drop", "duplicate")))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, copy.deepcopy(lines[i]))
    elif kind == "flip":
        raw = bytearray(_encode(lines[i]))
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        lines[i] = bytes(raw)
    elif not isinstance(lines[i], bytes):
        # The line itself is a slot too, so a whole line can turn hostile.
        slots = _slots(lines[i], [(lines, i)] if kind == "insert" else [])
        if not slots:
            return
        container, key = data.draw(st.sampled_from(slots))
        if kind == "delete":
            del container[key]
        else:
            container[key] = copy.deepcopy(data.draw(st.sampled_from(HOSTILE)))


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300)
@given(data=st.data())
def test_commands_on_mutated_files_exit_cleanly_and_name_a_file(data):
    files = valid_files()
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, files)
    with tempfile.TemporaryDirectory() as tmp:
        scenarios, out = Path(tmp) / "scenarios", Path(tmp) / "out"
        scenarios.mkdir()
        out.mkdir()
        for name, lines in files.items():
            (scenarios / name).write_bytes(b"".join(_encode(line) + b"\n" for line in lines))
        prefix, preds = str(scenarios / "s"), str(scenarios / "preds.jsonl")
        commands = (
            ["track", "--detections", f"{prefix}.detections.jsonl",
             "--world-out", str(out / "w.jsonl"), "--predictions-out", str(out / "p.jsonl")],
            ["eval", "--scenario", prefix, "--predictions", preds],
            ["compare", "--scenarios", str(scenarios)],
        )
        for argv in commands:
            code, err = run(argv)
            assert code in (0, 1), (argv, code, err)
            if code == 1:
                assert err.startswith("error: ") and (prefix in err or preds in err), (argv, err)


def test_the_unmutated_files_pass_every_command(tmp_path):
    for name, lines in valid_files().items():
        (tmp_path / name).write_bytes(b"".join(_encode(line) + b"\n" for line in lines))
    prefix, preds = str(tmp_path / "s"), str(tmp_path / "preds.jsonl")
    assert run(["track", "--detections", f"{prefix}.detections.jsonl",
                "--predictions-out", str(tmp_path / "p.jsonl")]) == (0, "")
    assert run(["eval", "--scenario", prefix, "--predictions", preds])[0] == 0
    assert run(["compare", "--scenarios", str(tmp_path)])[0] == 0
