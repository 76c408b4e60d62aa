"""Line-delimited JSON wire formats and configuration loading.

Frame record (detection streams, one line per frame):

    {"frame": 0, "camera": [x, y],
     "detections": [{"id": 0, "type": "cone", "score": 1.0,
                     "pos": [x, y], "size": [w, h]}, ...],
     "actions": [{"name": "contain", "args": ["cone0", "snitch0"]}, ...]}

World record (query results, one line per frame; written by ``track``,
read by no command, so world streams are write-only):

    {"frame": 0, "anchors": [{"id": "cone0", "type": "cone", "pos": [x, y],
                              "size": [w, h], "conf": 0.3,
                              "status": "visible", "parent": "cone1"?}]}

Truth record: {"frame", "camera", "objects": [{"name", "type", "pos",
"size"}], "snitch_label"}, the label being one of the subtasks ``visible``,
``occluded``, ``contained`` or ``carried``; prediction record: {"frame",
"box": null | {"pos", "size"}}. Every stream is ordered by strictly
increasing frame index; line k of a truth file carries the frame and
camera of line k of its detection stream, and a prediction's frame is its
0-based line position. A key outside a line's format is an error, JSON
``true``/``false`` are not numbers, and every box size is > 0 in both
components. Detection types must not start with ``cand``: the engine
reserves that prefix for the ids of provisional tracks.

Of the actions, only ``contain`` and ``uncontain`` change the world model
(``hypothesis.apply_action``); others are read and kept but do nothing.

Config files (engine and scenario) are one JSON object each, read by
``read_config_file``, which names the file in every error, including the
errors of generating a scenario file's scenarios. Their fields
pass the same checks as stream fields, and a key outside the known set
is an error. An engine config takes ``tau``, ``psi_mismatch``,
``conf_inc``, ``conf_dec``, ``kappa_anch`` and ``field_of_view``. Every
stream writer replaces its file only once the whole stream is written.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    CANDIDATE_PREFIX,
    ActionEvent,
    Anchor,
    Attributes,
    Box,
    ConfigError,
    EngineConfig,
    EngineError,
    FrameInput,
    Percept,
    Vec2,
)
from .metrics import SUBTASKS, TARGET_TYPE, Scenario

# Default thresholds suit clean synthetic detections; the assembly preset
# carries the high-noise settings (slower anchoring, a higher anchoring gate).
PRESETS: dict[str, dict] = {
    "benchmark": {},
    "assembly": {
        "conf_inc": 0.05,
        "kappa_anch": 0.5,
    },
}


class StreamFormatError(EngineError):
    """A stream file failed validation; the message carries path and line."""


class FieldError(ConfigError):
    """A JSON value failed a field check. The message names the field; the
    file reader that catches it adds the path (and line)."""


def _finite(value) -> bool:
    """A JSON number that is a finite float. Exact types: ``true``/``false``
    parse as ``bool``, an ``int`` subclass that must not pass."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def number(value, label: str) -> float:
    if not _finite(value):
        raise FieldError(f"{label} must be a finite number")
    return float(value)


def integer(value, label: str) -> int:
    if type(value) is not int:
        raise FieldError(f"{label} must be an integer")
    return value


def pair(value, label: str) -> Vec2:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not (_finite(value[0]) and _finite(value[1]))
    ):
        raise FieldError(f"{label} must be a pair of finite numbers")
    return (float(value[0]), float(value[1]))


def size(value, label: str) -> Vec2:
    width, height = pair(value, label)
    if width <= 0 or height <= 0:
        raise FieldError(f"{label} components must be > 0")
    return (width, height)


def string(value, label: str) -> str:
    if not isinstance(value, str):
        raise FieldError(f"{label} must be a string")
    return value


def object_list(value, label: str) -> list[dict]:
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise FieldError(f"{label} must be a list of objects")
    return value


def check_keys(obj: dict, known: dict, prefix: str = "") -> None:
    """Objects in config files and streams take no key outside the keys of
    ``known``: a misspelt key is an error, not a silent default."""
    if obj.keys() <= known.keys():
        return
    for key in obj:
        if key not in known:
            raise FieldError(f"{prefix}{key} is not a known key ({', '.join(known)})")


def read_fields(obj: dict, readers: dict, prefix: str = "") -> dict:
    """Read each key of a config object with its ``reader(value, label)``."""
    check_keys(obj, readers, prefix)
    return {key: readers[key](value, prefix + key) for key, value in obj.items()}


def list_of(read_entry):
    """A field reader for a list of objects, each read by ``read_entry(entry, label)``."""
    def read(value, label: str) -> tuple:
        items = object_list(value, label)
        return tuple(read_entry(entry, f"{label}[{i}]") for i, entry in enumerate(items))
    return read


def _parse_lines(path, parse_line) -> list:
    """``parse_line(obj, done)`` on the object of each non-blank line, where
    ``done`` holds the results of the lines before it. A malformed line
    raises ``StreamFormatError`` naming ``path:line``. Each line is decoded
    on its own, so bad UTF-8 is reported by line too."""
    done: list = []
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8").strip()
                if not text:
                    continue
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise StreamFormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
            except (ValueError, RecursionError) as exc:
                # bad UTF-8, an integer of over 4300 digits, or nesting too deep
                raise StreamFormatError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            try:
                if not isinstance(obj, dict):
                    raise FieldError("expected a JSON object")
                done.append(parse_line(obj, done))
            except FieldError as exc:
                raise StreamFormatError(f"{path}:{line_no}: {exc}") from None
    return done


def read_config_file(path, build):
    """``build`` applied to the top-level object of a JSON config file. Every
    ``ConfigError``, from the file or from ``build``, names ``path``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    try:
        return build(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# The keys of each object in a stream line, in the order errors list them.
_FRAME_KEYS = dict.fromkeys(("frame", "camera", "detections", "actions"))
_DETECTION_KEYS = dict.fromkeys(("id", "type", "score", "pos", "size"))
_ACTION_KEYS = dict.fromkeys(("name", "args"))
_PREDICTION_KEYS = dict.fromkeys(("frame", "box"))
_BOX_KEYS = dict.fromkeys(("pos", "size"))
_TRUTH_KEYS = dict.fromkeys(("frame", "camera", "objects", "snitch_label"))
_TRUTH_OBJECT_KEYS = dict.fromkeys(("name", "type", "pos", "size"))


# NaN and infinities are not JSON, and no reader here accepts them.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _write_lines(path, items: Iterable, payload, plain_line=None) -> None:
    """Write one compact JSON line per item: ``plain_line(item)``, the line
    formatted directly, or, where that gives ``None``, ``payload(item)``
    encoded by ``_ENCODER``. A non-finite number raises
    ``StreamFormatError`` naming ``path:line``.

    The lines go to a temporary file beside ``path`` that replaces it only
    once every line is written, so a failed write leaves no partial stream
    and keeps any file already at ``path``.
    """
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            for line_no, item in enumerate(items, start=1):
                try:
                    text = plain_line(item) if plain_line else None
                except (TypeError, ValueError):
                    # A shape the formatter does not take, or an int too long
                    # to print: the encoder judges those.
                    text = None
                if text is None:
                    obj = payload(item)
                    try:
                        text = _ENCODER.encode(obj)
                    except ValueError as exc:
                        raise StreamFormatError(f"{path}:{line_no}: {exc}") from None
                handle.write(text + "\n")
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise


# The writers format a line themselves when its frame and ids are exact
# ``int``s, its names exact ``str``s and its other numbers finite
# ``float``s, and give ``None`` otherwise, so that the encoder writes the
# line or raises its error. The text is the encoder's: a float's JSON form
# is its ``repr``, and strings are quoted by the encoder's own function. A
# sum of floats is finite only when every term is, which checks a line's
# floats at once.

_INF = math.inf
_quote = json.encoder.encode_basestring_ascii


# ---------------------------------------------------------------------------
# Detection streams


def write_detection_stream(path, frames: Iterable[FrameInput]) -> None:
    _write_lines(path, frames, _detection_payload, _plain_detection_line)


def _detection_payload(frame: FrameInput) -> dict:
    return {
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
        "actions": [{"name": a.name, "args": list(a.arguments)} for a in frame.actions],
    }


def _plain_detection_line(frame: FrameInput) -> str | None:
    index, (cx, cy) = frame.frame_index, frame.camera_pose
    if not (type(index) is int and float is type(cx) is type(cy) and -_INF < cx + cy < _INF):
        return None
    detections = []
    for pid, (kind, (x, y), (w, h)), score in frame.percepts:
        if not (
            type(pid) is int
            and type(kind) is str
            and float is type(x) is type(y) is type(w) is type(h) is type(score)
            and -_INF < x + y + w + h + score < _INF
        ):
            return None
        detections.append(
            f'{{"id":{pid!r},"type":{_quote(kind)},"score":{score!r},'
            f'"pos":[{x!r},{y!r}],"size":[{w!r},{h!r}]}}'
        )
    actions = []
    for action in frame.actions:
        name, args = action.name, action.arguments
        if not (type(name) is str and all(type(arg) is str for arg in args)):
            return None
        actions.append(f'{{"name":{_quote(name)},"args":[{",".join(map(_quote, args))}]}}')
    return (
        f'{{"frame":{index!r},"camera":[{cx!r},{cy!r}],'
        f'"detections":[{",".join(detections)}],"actions":[{",".join(actions)}]}}'
    )


def read_detection_stream(path) -> list[FrameInput]:
    return _parse_lines(path, _frame_input)


def _frame_input(obj: dict, frames: list[FrameInput]) -> FrameInput:
    check_keys(obj, _FRAME_KEYS)
    frame_index = obj.get("frame")
    if type(frame_index) is not int:
        frame_index = integer(frame_index, "frame")  # raises
    if frames and frame_index <= frames[-1].frame_index:
        previous = frames[-1].frame_index
        raise FieldError(f"frame index not strictly increasing ({frame_index} after {previous})")
    camera = obj.get("camera", _ORIGIN)
    camera = _plain_pair(camera) or pair(camera, "camera")
    percepts = []
    seen_ids: set[int] = set()
    for i, det in enumerate(object_list(obj.get("detections", []), "detections")):
        percept = _plain_percept(det, seen_ids) or _percept(det, i, seen_ids)
        seen_ids.add(percept.percept_id)
        percepts.append(percept)
    actions = []
    for i, act in enumerate(object_list(obj.get("actions", []), "actions")):
        label = f"actions[{i}]"
        check_keys(act, _ACTION_KEYS, f"{label}.")
        if not isinstance(act.get("name"), str):
            raise FieldError(f"{label} must carry a string 'name'")
        args = act.get("args", [])
        if not isinstance(args, list) or not args or not all(isinstance(a, str) for a in args):
            raise FieldError(f"{label}.args must be a non-empty list of strings")
        actions.append(ActionEvent(act["name"], tuple(args)))
    return FrameInput(frame_index, tuple(percepts), camera, tuple(actions))


def _percept(det: dict, i: int, seen_ids: set[int]) -> Percept:
    """Detection ``i`` of a frame, read by the labelled checks, which raise
    every detection error."""
    label = f"detections[{i}]"
    check_keys(det, _DETECTION_KEYS, f"{label}.")
    pid = integer(det.get("id", i), f"{label}.id")
    if pid in seen_ids:
        raise FieldError(f"{label}.id {pid} repeats within the frame")
    kind = det.get("type")
    if not isinstance(kind, str) or not kind:
        raise FieldError(f"{label}.type must be a non-empty string")
    if kind.startswith(CANDIDATE_PREFIX):
        raise FieldError(f"{label}.type {kind!r} uses the reserved prefix {CANDIDATE_PREFIX!r}")
    pos = pair(det.get("pos"), f"{label}.pos")
    box_size = size(det.get("size"), f"{label}.size")
    score = det.get("score", 1.0)
    if not _finite(score) or not (0.0 <= score <= 1.0):
        raise FieldError(f"{label}.score must lie in [0, 1]")
    return Percept(pid, Attributes(kind, pos, box_size), float(score))


# The common entries of the readers, checked without building the labels of
# the checks above: each ``_plain_*`` function returns what those checks
# return for an entry of exact JSON floats and ints, and ``None`` for any
# other entry, which the labelled checks then read. They accept a subset of
# what the labelled checks accept, so every error still comes from those.

_ORIGIN = [0.0, 0.0]


def _plain_pair(value) -> Vec2 | None:
    """``pair``'s result for a list of two finite floats."""
    if type(value) is list and len(value) == 2:
        x, y = value
        if float is type(x) is type(y) and -_INF < x + y < _INF:
            return (x, y)
    return None


def _plain_box(pos, box_size) -> Box | None:
    """``pair`` and ``size``'s results for two lists of two finite floats,
    the second > 0 in both components."""
    if type(pos) is list and type(box_size) is list and len(pos) == len(box_size) == 2:
        x, y = pos
        w, h = box_size
        if (
            float is type(x) is type(y) is type(w) is type(h)
            and -_INF < x + y < _INF
            and 0.0 < w < _INF
            and 0.0 < h < _INF
        ):
            return ((x, y), (w, h))
    return None


def _plain_percept(det: dict, seen_ids: set[int]) -> Percept | None:
    """``_percept``'s result for an entry with all five keys, an unseen
    ``int`` id, a non-empty type without the reserved prefix, a float score
    in [0, 1] and a plain box."""
    if len(det) != len(_DETECTION_KEYS):
        return None
    pid, kind, score = det.get("id"), det.get("type"), det.get("score")
    if (
        type(pid) is int
        and pid not in seen_ids
        and type(kind) is str
        and kind
        and not kind.startswith(CANDIDATE_PREFIX)
        and type(score) is float
        and 0.0 <= score <= 1.0
    ):
        box = _plain_box(det.get("pos"), det.get("size"))
        if box is not None:
            return Percept(pid, Attributes(kind, *box), score)
    return None


def _plain_truth_object(entry: dict) -> tuple[str, str, Box] | None:
    """A truth line's ``(name, type, box)`` for an entry with all four keys,
    a string name and type and a plain box."""
    if len(entry) != len(_TRUTH_OBJECT_KEYS):
        return None
    name, kind = entry.get("name"), entry.get("type")
    if type(name) is str and type(kind) is str:
        box = _plain_box(entry.get("pos"), entry.get("size"))
        if box is not None:
            return (name, kind, box)
    return None


# ---------------------------------------------------------------------------
# World streams (query results)


def write_world_stream(path, frames: Iterable[tuple[int, Sequence[Anchor]]]) -> None:
    _write_lines(path, frames, _world_payload, _plain_world_line)


def _world_payload(frame: tuple[int, Sequence[Anchor]]) -> dict:
    frame_index, anchors = frame
    return {"frame": frame_index, "anchors": list(map(_anchor_entry, anchors))}


def _anchor_entry(a: Anchor) -> dict:
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
    return entry


def _plain_world_line(frame: tuple[int, Sequence[Anchor]]) -> str | None:
    frame_index, anchors = frame
    if type(frame_index) is not int:
        return None
    entries = []
    for a in anchors:
        anchor_id, (kind, (x, y), (w, h)), conf = a.anchor_id, a.attributes, a.confidence
        status, parent = a.status, a.parent
        if not (
            str is type(anchor_id) is type(kind) is type(status)
            and float is type(x) is type(y) is type(w) is type(h) is type(conf)
            and -_INF < x + y + w + h + conf < _INF
        ):
            return None
        entry = (
            f'{{"id":{_quote(anchor_id)},"type":{_quote(kind)},"pos":[{x!r},{y!r}],'
            f'"size":[{w!r},{h!r}],"conf":{conf!r},"status":{_quote(status)}'
        )
        if parent is None:
            entries.append(entry + "}")
        elif type(parent) is str:
            entries.append(f'{entry},"parent":{_quote(parent)}}}')
        else:
            return None
    return f'{{"frame":{frame_index!r},"anchors":[{",".join(entries)}]}}'


# ---------------------------------------------------------------------------
# Predictions


def write_predictions(path, predictions: Sequence[Box | None]) -> None:
    _write_lines(path, enumerate(predictions), _prediction_payload)


def _prediction_payload(item: tuple[int, Box | None]) -> dict:
    frame_index, box = item
    return {
        "frame": frame_index,
        "box": None if box is None else {"pos": list(box[0]), "size": list(box[1])},
    }


def read_predictions(path) -> list[Box | None]:
    return _parse_lines(path, _prediction)


def _prediction(obj: dict, done: list) -> Box | None:
    check_keys(obj, _PREDICTION_KEYS)
    frame_index = obj.get("frame")
    if type(frame_index) is not int or frame_index != len(done):
        raise FieldError(f"frame must be {len(done)}, the line's 0-based position")
    box = obj.get("box")
    if box is None:
        return None
    if not isinstance(box, dict):
        raise FieldError("box must be null or an object")
    check_keys(box, _BOX_KEYS, "box.")
    return (pair(box.get("pos"), "box.pos"), size(box.get("size"), "box.size"))


# ---------------------------------------------------------------------------
# Scenario truth files and loading


def write_truth_stream(path, scenario: Scenario) -> None:
    _write_lines(
        path, zip(scenario.inputs, scenario.labels, scenario.objects),
        _truth_payload, _plain_truth_line,
    )


def _truth_payload(line: tuple[FrameInput, str, tuple]) -> dict:
    frame, label, objects = line
    return {
        "frame": frame.frame_index,
        "camera": list(frame.camera_pose),
        "objects": [
            {"name": name, "type": kind, "pos": list(pos), "size": list(size)}
            for name, kind, (pos, size) in objects
        ],
        "snitch_label": label,
    }


def _plain_truth_line(line: tuple[FrameInput, str, tuple]) -> str | None:
    frame, label, objects = line
    index, (cx, cy) = frame.frame_index, frame.camera_pose
    if not (
        type(index) is int
        and type(label) is str
        and float is type(cx) is type(cy)
        and -_INF < cx + cy < _INF
    ):
        return None
    entries = []
    for name, kind, ((x, y), (w, h)) in objects:
        if not (
            str is type(name) is type(kind)
            and float is type(x) is type(y) is type(w) is type(h)
            and -_INF < x + y + w + h < _INF
        ):
            return None
        entries.append(
            f'{{"name":{_quote(name)},"type":{_quote(kind)},'
            f'"pos":[{x!r},{y!r}],"size":[{w!r},{h!r}]}}'
        )
    return (
        f'{{"frame":{index!r},"camera":[{cx!r},{cy!r}],'
        f'"objects":[{",".join(entries)}],"snitch_label":{_quote(label)}}}'
    )


def load_scenario(prefix) -> Scenario:
    """Load ``<prefix>.detections.jsonl`` + ``<prefix>.truth.jsonl``."""
    prefix = str(prefix)
    inputs = read_detection_stream(prefix + ".detections.jsonl")

    def truth_line(obj: dict, done: list) -> tuple[str, tuple[tuple[str, str, Box], ...]]:
        if len(done) == len(inputs):
            raise FieldError(f"detections have only {len(inputs)} frames")
        check_keys(obj, _TRUTH_KEYS)
        frame = inputs[len(done)]
        if type(obj.get("frame")) is not int or obj["frame"] != frame.frame_index:
            raise FieldError(f"frame must be {frame.frame_index}, as in the detection stream")
        camera = obj.get("camera", _ORIGIN)
        if (_plain_pair(camera) or pair(camera, "camera")) != frame.camera_pose:
            raise FieldError(
                f"camera must be {list(frame.camera_pose)}, as in the detection stream"
            )
        label = obj.get("snitch_label")
        if label not in SUBTASKS:
            raise FieldError(f"snitch_label must be one of {', '.join(SUBTASKS)}")
        entries = []
        has_target = False
        for i, item in enumerate(object_list(obj.get("objects", []), "objects")):
            entry = _plain_truth_object(item) or _truth_object(item, i)
            entries.append(entry)
            has_target = has_target or entry[1] == TARGET_TYPE
        if not has_target:
            raise FieldError(f"objects has no {TARGET_TYPE}")
        return label, tuple(entries)

    truth = _parse_lines(prefix + ".truth.jsonl", truth_line)
    if len(truth) != len(inputs):
        raise StreamFormatError(
            f"{prefix}: truth has {len(truth)} frames, detections have {len(inputs)}"
        )
    return Scenario(
        tuple(inputs),
        tuple(label for label, _ in truth),
        tuple(objects for _, objects in truth),
    )


def _truth_object(entry: dict, i: int) -> tuple[str, str, Box]:
    """Object ``i`` of a truth line, read by the labelled checks, which raise
    every object error."""
    label = f"objects[{i}]"
    check_keys(entry, _TRUTH_OBJECT_KEYS, f"{label}.")
    name, kind = entry.get("name"), entry.get("type")
    if not (isinstance(name, str) and isinstance(kind, str)):
        raise FieldError(f"{label} needs a string name and type")
    return (name, kind, (pair(entry.get("pos"), f"{label}.pos"),
                         size(entry.get("size"), f"{label}.size")))


# ---------------------------------------------------------------------------
# Engine configuration


_ENGINE_FIELDS = {
    **dict.fromkeys(("tau", "psi_mismatch", "conf_inc", "conf_dec", "kappa_anch"), number),
    "field_of_view": pair,
}


def load_engine_config(spec: str) -> EngineConfig:
    """Resolve a preset name or JSON file path into an ``EngineConfig``."""
    if spec in PRESETS:
        return EngineConfig(**PRESETS[spec])
    if not Path(spec).exists():
        raise ConfigError(
            f"config {spec!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a file"
        )
    return read_config_file(spec, lambda raw: EngineConfig(**read_fields(raw, _ENGINE_FIELDS)))
