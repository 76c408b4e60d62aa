"""Line-delimited JSON wire formats and configuration loading.

Frame record (detection streams, one line per frame):

    {"frame": 0, "camera": [x, y],
     "detections": [{"id": 0, "type": "cone", "score": 1.0,
                     "pos": [x, y], "size": [w, h]}, ...],
     "actions": [{"name": "contain", "args": ["cone0", "snitch0"]}, ...]}

World record (query results, one line per frame):

    {"frame": 0, "anchors": [{"id": "cone0", "type": "cone", "pos": [x, y],
                              "size": [w, h], "conf": 0.3,
                              "status": "visible", "parent": "cone1"?}]}

Truth record: {"frame", "camera", "objects": [{"name", "type", "pos",
"size"}], "snitch_label"}; prediction record: {"frame", "box": null |
{"pos", "size"}}. Every stream is ordered by strictly increasing frame
index; line k of a truth file carries the frame of line k of its
detection stream, and a prediction's frame is its 0-based line position.
JSON ``true``/``false`` are not numbers. Detection types must not start
with ``cand``: the engine reserves that prefix for the ids of provisional
tracks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    CANDIDATE_PREFIX,
    ActionEvent,
    ActionRule,
    Anchor,
    Attributes,
    Box,
    ConfigError,
    EngineConfig,
    EngineError,
    Percept,
    Vec2,
)
from .metrics import Scenario
from .tracker import FrameInput

CONFIG_ENV_VAR = "ANCHORKIT_CONFIG"

# Default thresholds suit clean synthetic detections; the assembly preset
# carries the high-noise settings (slower anchoring, stricter inference gate).
PRESETS: dict[str, dict] = {
    "benchmark": {},
    "assembly": {
        "conf_inc": 0.05,
        "conf_dec": 0.1,
        "kappa_anch": 0.5,
        "kappa_inf": 0.8,
    },
}


class StreamFormatError(EngineError):
    """A stream file failed validation; the message carries path and line."""


def _fail(path, line_no: int, message: str) -> StreamFormatError:
    return StreamFormatError(f"{path}:{line_no}: {message}")


def _is_number(value, kinds=(int, float)) -> bool:
    """A JSON number of ``kinds``. Exact types: ``true``/``false`` parse as
    ``bool``, an ``int`` subclass that must not pass."""
    return type(value) in kinds


def _as_vec(value, path, line_no: int, label: str) -> Vec2:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not (_is_number(value[0]) and _is_number(value[1]))
    ):
        raise _fail(path, line_no, f"{label} must be a pair of numbers")
    x, y = float(value[0]), float(value[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise _fail(path, line_no, f"{label} must be finite")
    return (x, y)


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _fail(path, line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise _fail(path, line_no, "expected a JSON object")
            yield line_no, obj


def _objects(obj: dict, key: str, path, line_no: int) -> list[dict]:
    items = obj.get(key, [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise _fail(path, line_no, f"{key} must be a list of objects")
    return items


def _dump_line(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Detection streams


def write_detection_stream(path, frames: Iterable[FrameInput]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for frame in frames:
            handle.write(
                _dump_line(
                    {
                        "frame": frame.frame_index,
                        "camera": list(frame.camera_pose),
                        "detections": [
                            {
                                "id": p.percept_id,
                                "type": p.attributes.object_type,
                                "score": p.detector_score,
                                "pos": list(p.attributes.position),
                                "size": list(p.attributes.size),
                            }
                            for p in frame.percepts
                        ],
                        "actions": [
                            {"name": a.name, "args": list(a.arguments)}
                            for a in frame.actions
                        ],
                    }
                )
            )


def read_detection_stream(path) -> list[FrameInput]:
    frames: list[FrameInput] = []
    previous = None
    for line_no, obj in _read_lines(path):
        frame_index = obj.get("frame")
        if not _is_number(frame_index, (int,)):
            raise _fail(path, line_no, "frame must be an integer")
        if previous is not None and frame_index <= previous:
            raise _fail(
                path, line_no,
                f"frame index not strictly increasing ({frame_index} after {previous})",
            )
        previous = frame_index
        camera = _as_vec(obj.get("camera", [0.0, 0.0]), path, line_no, "camera")
        percepts = []
        seen_ids: set[int] = set()
        for i, det in enumerate(_objects(obj, "detections", path, line_no)):
            label = f"detections[{i}]"
            pid = det.get("id", i)
            if not _is_number(pid, (int,)):
                raise _fail(path, line_no, f"{label}.id must be an integer")
            if pid in seen_ids:
                raise _fail(path, line_no, f"{label}.id {pid} repeats within the frame")
            seen_ids.add(pid)
            kind = det.get("type")
            if not isinstance(kind, str) or not kind:
                raise _fail(path, line_no, f"{label}.type must be a non-empty string")
            if kind.startswith(CANDIDATE_PREFIX):
                raise _fail(
                    path, line_no,
                    f"{label}.type {kind!r} uses the reserved prefix {CANDIDATE_PREFIX!r}",
                )
            pos = _as_vec(det.get("pos"), path, line_no, f"{label}.pos")
            size = _as_vec(det.get("size"), path, line_no, f"{label}.size")
            if size[0] <= 0 or size[1] <= 0:
                raise _fail(path, line_no, f"{label}.size components must be > 0")
            score = det.get("score", 1.0)
            if not _is_number(score) or not (0.0 <= score <= 1.0):
                raise _fail(path, line_no, f"{label}.score must lie in [0, 1]")
            percepts.append(
                Percept(pid, Attributes(kind, pos, size), float(score))
            )
        actions = []
        for i, act in enumerate(_objects(obj, "actions", path, line_no)):
            label = f"actions[{i}]"
            if not isinstance(act.get("name"), str):
                raise _fail(path, line_no, f"{label} must carry a string 'name'")
            args = act.get("args", [])
            if not isinstance(args, list) or not args or not all(isinstance(a, str) for a in args):
                raise _fail(path, line_no, f"{label}.args must be a non-empty list of strings")
            actions.append(ActionEvent(act["name"], tuple(args), frame_index))
        frames.append(FrameInput(frame_index, tuple(percepts), camera, tuple(actions)))
    return frames


# ---------------------------------------------------------------------------
# World streams (query results)


@dataclass(frozen=True)
class AnchorRecord:
    """One serialized anchor line entry."""

    anchor_id: str
    object_type: str
    position: Vec2
    size: Vec2
    confidence: float
    status: str
    parent: str | None = None


def write_world_stream(path, frames: Iterable[tuple[int, Sequence[Anchor]]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for frame_index, anchors in frames:
            entries = []
            for a in anchors:
                entry = {
                    "id": a.anchor_id,
                    "type": a.attributes.object_type,
                    "pos": list(a.attributes.position),
                    "size": list(a.attributes.size),
                    "conf": a.confidence,
                    "status": a.status,
                }
                if a.parent is not None:
                    entry["parent"] = a.parent
                entries.append(entry)
            handle.write(_dump_line({"frame": frame_index, "anchors": entries}))


def read_world_stream(path) -> list[tuple[int, tuple[AnchorRecord, ...]]]:
    frames: list[tuple[int, tuple[AnchorRecord, ...]]] = []
    previous = None
    for line_no, obj in _read_lines(path):
        frame_index = obj.get("frame")
        if not _is_number(frame_index, (int,)):
            raise _fail(path, line_no, "frame must be an integer")
        if previous is not None and frame_index <= previous:
            raise _fail(path, line_no, "frame index not strictly increasing")
        previous = frame_index
        records = []
        for i, entry in enumerate(_objects(obj, "anchors", path, line_no)):
            label = f"anchors[{i}]"
            pos = _as_vec(entry.get("pos"), path, line_no, f"{label}.pos")
            size = _as_vec(entry.get("size"), path, line_no, f"{label}.size")
            for key in ("id", "type", "status"):
                if not isinstance(entry.get(key), str):
                    raise _fail(path, line_no, f"{label}.{key} must be a string")
            if not _is_number(entry.get("conf")):
                raise _fail(path, line_no, f"{label}.conf must be a number")
            parent = entry.get("parent")
            if parent is not None and not isinstance(parent, str):
                raise _fail(path, line_no, f"{label}.parent must be a string")
            records.append(
                AnchorRecord(
                    anchor_id=entry["id"],
                    object_type=entry["type"],
                    position=pos,
                    size=size,
                    confidence=float(entry["conf"]),
                    status=entry["status"],
                    parent=parent,
                )
            )
        frames.append((frame_index, tuple(records)))
    return frames


# ---------------------------------------------------------------------------
# Predictions


def write_predictions(path, predictions: Sequence[Box | None]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for frame_index, box in enumerate(predictions):
            payload = {"frame": frame_index, "box": None}
            if box is not None:
                payload["box"] = {"pos": list(box[0]), "size": list(box[1])}
            handle.write(_dump_line(payload))


def read_predictions(path) -> list[Box | None]:
    out: list[Box | None] = []
    for line_no, obj in _read_lines(path):
        frame_index = obj.get("frame")
        if not _is_number(frame_index, (int,)) or frame_index != len(out):
            raise _fail(path, line_no, f"frame must be {len(out)}, the line's 0-based position")
        box = obj.get("box")
        if box is None:
            out.append(None)
            continue
        if not isinstance(box, dict):
            raise _fail(path, line_no, "box must be null or an object")
        pos = _as_vec(box.get("pos"), path, line_no, "box.pos")
        size = _as_vec(box.get("size"), path, line_no, "box.size")
        out.append((pos, size))
    return out


# ---------------------------------------------------------------------------
# Scenario truth files and loading


def write_truth_stream(path, scenario: Scenario) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for frame, label, objects in zip(scenario.inputs, scenario.labels, scenario.objects):
            handle.write(
                _dump_line(
                    {
                        "frame": frame.frame_index,
                        "camera": list(frame.camera_pose),
                        "objects": [
                            {"name": name, "type": kind, "pos": list(pos), "size": list(size)}
                            for name, kind, (pos, size) in objects
                        ],
                        "snitch_label": label,
                    }
                )
            )


def load_scenario(prefix) -> Scenario:
    """Load ``<prefix>.detections.jsonl`` + ``<prefix>.truth.jsonl``."""
    prefix = str(prefix)
    inputs = read_detection_stream(prefix + ".detections.jsonl")
    labels: list[str] = []
    objects: list[tuple[tuple[str, str, Box], ...]] = []
    truth_path = prefix + ".truth.jsonl"
    for line_no, obj in _read_lines(truth_path):
        if len(labels) == len(inputs):
            raise _fail(truth_path, line_no, f"detections have only {len(inputs)} frames")
        frame_index = inputs[len(labels)].frame_index
        if not _is_number(obj.get("frame"), (int,)) or obj["frame"] != frame_index:
            raise _fail(
                truth_path, line_no, f"frame must be {frame_index}, as in the detection stream"
            )
        label = obj.get("snitch_label")
        if not isinstance(label, str):
            raise _fail(truth_path, line_no, "snitch_label must be a string")
        labels.append(label)
        entries = []
        for i, entry in enumerate(_objects(obj, "objects", truth_path, line_no)):
            name, kind = entry.get("name"), entry.get("type")
            if not (isinstance(name, str) and isinstance(kind, str)):
                raise _fail(truth_path, line_no, f"objects[{i}] needs a string name and type")
            pos = _as_vec(entry.get("pos"), truth_path, line_no, f"objects[{i}].pos")
            size = _as_vec(entry.get("size"), truth_path, line_no, f"objects[{i}].size")
            entries.append((name, kind, (pos, size)))
        objects.append(tuple(entries))
    if len(labels) != len(inputs):
        raise StreamFormatError(
            f"{prefix}: truth has {len(labels)} frames, detections have {len(inputs)}"
        )
    return Scenario(tuple(inputs), tuple(labels), tuple(objects))


# ---------------------------------------------------------------------------
# Engine configuration


def _rules_from_json(raw) -> tuple[ActionRule, ...]:
    rules = []
    for i, entry in enumerate(raw):
        try:
            rules.append(
                ActionRule(
                    action_name=entry["action"],
                    effect=entry["effect"],
                    child_arg=entry["child_arg"],
                    parent_arg=entry.get("parent_arg"),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"action_rules[{i}] is malformed: {exc}") from exc
    return tuple(rules)


def engine_config_to_json(config: EngineConfig) -> dict:
    return {
        "tau": config.tau,
        "psi_mismatch": config.psi_mismatch,
        "conf_inc": config.conf_inc,
        "conf_dec": config.conf_dec,
        "kappa_anch": config.kappa_anch,
        "kappa_inf": config.kappa_inf,
        "field_of_view": list(config.field_of_view),
        "action_rules": [
            {
                "action": r.action_name,
                "effect": r.effect,
                "child_arg": r.child_arg,
                **({"parent_arg": r.parent_arg} if r.parent_arg is not None else {}),
            }
            for r in config.action_rules
        ],
    }


def load_engine_config(spec: str | None = None) -> EngineConfig:
    """Resolve a preset name or JSON file path into an ``EngineConfig``.

    Falls back to the ``ANCHORKIT_CONFIG`` environment variable and then the
    ``benchmark`` preset when ``spec`` is omitted.
    """
    if spec is None:
        spec = os.environ.get(CONFIG_ENV_VAR) or "benchmark"
    if spec in PRESETS:
        return EngineConfig(**PRESETS[spec])
    path = Path(spec)
    if not path.exists():
        raise ConfigError(
            f"config {spec!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a file"
        )
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    kwargs = {}
    for key in ("tau", "psi_mismatch", "conf_inc", "conf_dec", "kappa_anch", "kappa_inf"):
        if key in raw:
            kwargs[key] = float(raw[key])
    if "field_of_view" in raw:
        fov = raw["field_of_view"]
        if not isinstance(fov, (list, tuple)) or len(fov) != 2:
            raise ConfigError(f"{path}: field_of_view must be a pair")
        kwargs["field_of_view"] = (float(fov[0]), float(fov[1]))
    if "action_rules" in raw:
        kwargs["action_rules"] = _rules_from_json(raw["action_rules"])
    return EngineConfig(**kwargs)
