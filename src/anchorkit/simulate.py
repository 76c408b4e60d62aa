"""Deterministic 2D tabletop scenario generator.

Scenes are viewed top-down: opaque objects pass over one another, and cones
can settle on top of smaller objects, hiding them and carrying them around.
The generator emits ground-truth trajectories, per-frame target labels,
agent-action events, and a detection stream with optional sensor noise
(miss bursts, short-lived ghost detections, center jitter).

Conventions that keep noiseless scenes exactly trackable:

* an object only moves during its own motion event, and movers are drawn
  above everything else, so they stay detected while moving;
* a container settles on its target one full frame before the ``contain``
  action fires, so frozen attachment offsets are exact;
* ``uncontain`` fires on the frame the container is still in place, before
  it retreats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import ActionEvent, Attributes, EngineError, Percept, Vec2, ancestors, chain_position
from .io_jsonl import FieldError, check_keys, integer, list_of, number, pair, read_fields, string
from .metrics import TARGET_TYPE, Scenario
from .tracker import FrameInput

MOTION_KINDS = ("slide", "pick_place", "contain", "uncontain")
EVENT_KINDS = MOTION_KINDS + ("rotate",)
GHOST_TYPES = ("cone", "cube", "sphere", "cylinder")

DEFAULT_SIZES = {
    "cone": 40.0,
    "cube": 30.0,
    "sphere": 24.0,
    "cylinder": 26.0,
    "snitch": 18.0,
}

# An object more than this share covered by objects above it is not detected.
COVER_DROP_FRACTION = 0.5
# Object pairs per block of the cover test: its (frames, n, n) arrays stay
# about 8 MB each, whatever the frame and object counts.
_COVER_BLOCK_CELLS = 1 << 20
# Object counts of the random layout, in placement order: the order feeds
# the RNG, so changing it changes every random scenario.
RANDOM_LAYOUT = (("cone", 2), ("cube", 1), ("cylinder", 1), ("snitch", 1), ("sphere", 1))
# Event kinds of the random script with their relative weights, in the order
# the RNG draws from (same caveat).
RANDOM_EVENT_MIX = {"contain": 0.3, "pick_place": 0.15, "rotate": 0.1, "slide": 0.45}


class SimulationError(EngineError):
    """Infeasible scenario configuration or script."""


@dataclass(frozen=True)
class ObjectSpec:
    name: str
    object_type: str
    size: Vec2
    start: Vec2  # world coordinates


@dataclass(frozen=True)
class EventSpec:
    """One scripted event.

    ``slide``/``pick_place`` move the subject to ``dest`` over [start, end].
    ``contain`` moves the subject onto ``target`` (plus ``offset``) over
    [start, end]; the attachment fires at end + 1. ``uncontain`` releases
    ``target`` at ``start`` and then retreats the subject to ``dest``.
    ``rotate`` spins in place and changes nothing.
    """

    kind: str
    subject: str
    start: int
    end: int
    dest: Vec2 | None = None
    target: str | None = None
    offset: Vec2 = (0.0, 0.0)


@dataclass(frozen=True)
class NoiseConfig:
    miss_rate: float = 0.0
    ghost_rate: float = 0.0
    jitter_sigma: float = 0.0
    flicker_burst_length: int = 1
    # Minimum spawn distance between a ghost and the last seen position of
    # any real object. 0 places ghosts anywhere, including inside the
    # association radius of a temporarily missing object, which exercises
    # alignment ambiguity rather than plain flicker.
    ghost_clearance: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    frames: int = 300
    viewport: Vec2 = (360.0, 240.0)
    objects: tuple[ObjectSpec, ...] | None = None
    script: tuple[EventSpec, ...] | None = None
    camera: tuple[tuple[int, Vec2], ...] = ((0, (0.0, 0.0)),)
    noise: NoiseConfig = NoiseConfig()


@dataclass(frozen=True)
class ScenarioRecord:
    """Everything a scenario produced: truth, labels, events, detections."""

    frames: int
    viewport: Vec2
    objects: tuple[ObjectSpec, ...]
    camera: tuple[Vec2, ...]
    truth: tuple[Mapping[str, Vec2], ...]  # world coordinates per frame
    labels: tuple[str, ...]
    actions: tuple[ActionEvent, ...]
    detections: tuple[tuple[Percept, ...], ...]
    visibility: tuple[frozenset[str], ...]  # pre-noise detectable object names
    attachments: tuple[tuple[str, str, int, int], ...]  # (child, parent, start, end)

    def target_name(self) -> str:
        for spec in self.objects:
            if spec.object_type == TARGET_TYPE:
                return spec.name
        raise KeyError(f"no object of type {TARGET_TYPE!r}")

    def image_position(self, frame: int, name: str) -> Vec2:
        wx, wy = self.truth[frame][name]
        cx, cy = self.camera[frame]
        return (wx - cx, wy - cy)

    def frame_inputs(self) -> list[FrameInput]:
        by_frame: dict[int, list[ActionEvent]] = {}
        for event in self.actions:
            by_frame.setdefault(event.frame_index, []).append(event)
        return [
            FrameInput(
                frame_index=f,
                percepts=self.detections[f],
                camera_pose=self.camera[f],
                actions=tuple(by_frame.get(f, ())),
            )
            for f in range(self.frames)
        ]

    def scenario(self) -> Scenario:
        """What scoring needs, in image coordinates; equal to what
        ``load_scenario`` reads back from this record's files."""
        return Scenario(
            inputs=tuple(self.frame_inputs()),
            labels=self.labels,
            objects=tuple([
                tuple([
                    (o.name, o.object_type, ((at[o.name][0] - cx, at[o.name][1] - cy), o.size))
                    for o in self.objects
                ])
                for at, (cx, cy) in zip(self.truth, self.camera)
            ]),
        )


def _lerp_pose(p0: Vec2, p1: Vec2, num: int, den: int) -> Vec2:
    # Multiply before dividing: integer-valued waypoints with divisible spans
    # then interpolate without rounding error.
    return (
        p0[0] + (p1[0] - p0[0]) * num / den,
        p0[1] + (p1[1] - p0[1]) * num / den,
    )


def _camera_pose(waypoints: Sequence[tuple[int, Vec2]], frame: int) -> Vec2:
    if frame <= waypoints[0][0]:
        return waypoints[0][1]
    for (f0, p0), (f1, p1) in zip(waypoints, waypoints[1:]):
        if frame <= f1:
            return _lerp_pose(p0, p1, frame - f0, f1 - f0)
    return waypoints[-1][1]


def _finite(*values: float) -> bool:
    return all(map(math.isfinite, values))


def _validate_noise(noise: NoiseConfig) -> None:
    for name in ("miss_rate", "ghost_rate"):
        rate = getattr(noise, name)
        if not (0.0 <= rate <= 1.0):
            raise SimulationError(f"{name} must lie in [0, 1], got {rate}")
    if not (0 <= noise.jitter_sigma < math.inf):
        raise SimulationError(f"jitter_sigma must be >= 0 and finite, got {noise.jitter_sigma}")
    burst = noise.flicker_burst_length
    if not (isinstance(burst, (int, np.integer)) and burst >= 1):
        raise SimulationError(f"flicker_burst_length must be an integer >= 1, got {burst}")
    if not _finite(noise.ghost_clearance):
        raise SimulationError(f"ghost_clearance must be finite, got {noise.ghost_clearance}")


def _validate_view(config: ScenarioConfig) -> None:
    if not _finite(*config.viewport):
        raise SimulationError(f"viewport must be finite, got {config.viewport}")
    if not config.camera:
        raise SimulationError("camera needs at least one waypoint")
    for i, (frame, pose) in enumerate(config.camera):
        if not _finite(*pose):
            raise SimulationError(f"camera waypoint {i}: pose must be finite, got {pose}")
        if i and frame <= config.camera[i - 1][0]:
            raise SimulationError(
                f"camera waypoint {i}: frame {frame} must come after {config.camera[i - 1][0]}"
            )


def _validate_objects(objects: Sequence[ObjectSpec]) -> int:
    """Checks the object specs; returns the index of the one target object."""
    names = [o.name for o in objects]
    if len(set(names)) != len(names):
        raise SimulationError("object names must be unique")
    targets = [i for i, o in enumerate(objects) if o.object_type == TARGET_TYPE]
    if len(targets) != 1:
        raise SimulationError(f"exactly one {TARGET_TYPE} required, got {len(targets)}")
    for spec in objects:
        if not _finite(*spec.size, *spec.start):
            raise SimulationError(f"object {spec.name!r} has a non-finite size or start")
        if spec.size[0] <= 0 or spec.size[1] <= 0:
            raise SimulationError(f"object {spec.name!r} has non-positive size")
    return targets[0]


def _validate_script(
    script: Sequence[EventSpec], objects: Sequence[ObjectSpec], config: ScenarioConfig
) -> None:
    by_name = {o.name: o for o in objects}
    motion_windows: list[tuple[int, int, int]] = []
    for i, ev in enumerate(script):
        if ev.kind not in EVENT_KINDS:
            raise SimulationError(f"event {i}: unknown kind {ev.kind!r}")
        if ev.subject not in by_name:
            raise SimulationError(f"event {i}: unknown subject {ev.subject!r}")
        if not (0 <= ev.start <= ev.end < config.frames):
            raise SimulationError(f"event {i}: window [{ev.start}, {ev.end}] out of range")
        if ev.kind in ("slide", "pick_place", "uncontain") and ev.dest is None:
            raise SimulationError(f"event {i}: {ev.kind} requires a destination")
        for field in ("dest", "offset"):
            value = getattr(ev, field)
            if value is not None and not _finite(*value):
                raise SimulationError(f"event {i}: {field} must be finite, got {value}")
        if ev.kind in ("contain", "uncontain"):
            if ev.target is None or ev.target not in by_name:
                raise SimulationError(f"event {i}: unknown target {ev.target!r}")
            if ev.target == ev.subject:
                raise SimulationError(f"event {i}: subject cannot contain itself")
        if ev.kind == "contain":
            if ev.end + 1 >= config.frames:
                raise SimulationError(f"event {i}: contain must finish before the last frame")
            container = by_name[ev.subject]
            child = by_name[ev.target]
            for axis in (0, 1):
                if abs(ev.offset[axis]) + child.size[axis] / 2 > container.size[axis] / 2 + 1e-9:
                    raise SimulationError(
                        f"event {i}: container {ev.subject!r} cannot fully cover {ev.target!r}"
                    )
        if ev.kind in MOTION_KINDS:
            motion_windows.append((ev.start, ev.end, i))
    motion_windows.sort()
    for (s0, e0, i0), (s1, e1, i1) in zip(motion_windows, motion_windows[1:]):
        if s1 <= e0:
            raise SimulationError(
                f"event {i1}: motion window overlaps event {i0} (one mover at a time)"
            )


def _synthesize(script, objects, config, snitch: str):
    frames = config.frames
    position: dict[str, Vec2] = {o.name: o.start for o in objects}
    # The attachment graph, as ``core.chain_position`` reads it.
    parent_of: dict[str, str] = {}
    offset_of: dict[str, Vec2] = {}
    attach_start: dict[str, int] = {}
    attach_log: list[tuple[str, str, int, int]] = []
    actions: list[ActionEvent] = []
    trajectory: list[dict[str, Vec2]] = []
    target_contained: list[bool] = []

    origin: dict[int, Vec2] = {}
    goal: dict[int, Vec2] = {}
    indexed = list(enumerate(script))

    for f in range(frames):
        # Attachment lifecycle first, mirroring actions-before-alignment.
        for i, ev in indexed:
            if ev.kind == "contain" and f == ev.end + 1:
                if ev.target in parent_of:
                    raise SimulationError(
                        f"event {i}: contain target {ev.target!r} is already attached"
                    )
                parent_of[ev.target] = ev.subject
                offset_of[ev.target] = (
                    position[ev.target][0] - position[ev.subject][0],
                    position[ev.target][1] - position[ev.subject][1],
                )
                attach_start[ev.target] = f
                actions.append(ActionEvent("contain", (ev.subject, ev.target), f))
            elif ev.kind == "uncontain" and f == ev.start:
                if parent_of.get(ev.target) != ev.subject:
                    raise SimulationError(
                        f"event {i}: uncontain without a matching containment of {ev.target!r}"
                    )
                attach_log.append((ev.target, ev.subject, attach_start.pop(ev.target), f))
                del parent_of[ev.target], offset_of[ev.target]
                actions.append(ActionEvent("uncontain", (ev.subject, ev.target), f))
            elif ev.kind == "rotate" and f == ev.start:
                actions.append(ActionEvent("rotate", (ev.subject,), f))

        for i, ev in indexed:
            if ev.kind not in MOTION_KINDS or not (ev.start <= f <= ev.end):
                continue
            if ev.subject in parent_of:
                raise SimulationError(
                    f"event {i}: subject {ev.subject!r} cannot move while attached"
                )
            if i not in origin:
                origin[i] = position[ev.subject]
                if ev.kind == "contain":
                    tx, ty = position[ev.target]
                    goal[i] = (tx + ev.offset[0], ty + ev.offset[1])
                else:
                    goal[i] = ev.dest
            span = ev.end - ev.start
            num = f - ev.start if span else 1
            den = span if span else 1
            position[ev.subject] = _lerp_pose(origin[i], goal[i], num, den)
            if ev.kind == "contain" and f == ev.end:
                tx, ty = position[ev.target]
                want = (tx + ev.offset[0], ty + ev.offset[1])
                if want != goal[i]:
                    raise SimulationError(
                        f"event {i}: contain target {ev.target!r} moved during the approach"
                    )

        for child in parent_of:  # roots are never attached, so never move here
            position[child] = chain_position(child, parent_of, offset_of, position)

        trajectory.append(dict(position))
        target_contained.append(snitch in parent_of)

    for child, parent in parent_of.items():
        attach_log.append((child, parent, attach_start[child], frames))
    return trajectory, target_contained, actions, attach_log


def _render_flags(
    centers: np.ndarray,
    sizes: np.ndarray,
    layers: np.ndarray,
    camera: np.ndarray,
    viewport: Vec2,
) -> tuple[np.ndarray, np.ndarray]:
    """Per frame and object (two ``(frames, n)`` boolean arrays): covered,
    when an object on a strictly higher layer overlaps more than
    ``COVER_DROP_FRACTION`` of its area by ``core.box_intersection``'s
    arithmetic, and in view, when its image position lies in [0, W) x [0, H).

    ``centers`` is ``(frames, n, 2)``, ``sizes`` ``(n, 2)``, ``layers``
    ``(frames, n)`` and ``camera`` ``(frames, 2)``.
    """
    frames, n = layers.shape
    half = sizes / 2.0
    lo = centers - half
    hi = centers + half
    area = (sizes[:, 0] * sizes[:, 1])[:, None]
    covered = np.empty((frames, n), dtype=bool)
    step = max(1, _COVER_BLOCK_CELLS // (n * n))
    for s in range(0, frames, step):
        b = slice(s, s + step)
        # [f, i, j]: the overlap of object i with object j, on each axis.
        ox = np.minimum(hi[b, :, None, 0], hi[b, None, :, 0])
        ox -= np.maximum(lo[b, :, None, 0], lo[b, None, :, 0])
        oy = np.minimum(hi[b, :, None, 1], hi[b, None, :, 1])
        oy -= np.maximum(lo[b, :, None, 1], lo[b, None, :, 1])
        # Both overlaps are tested: two negative ones have a positive product.
        hit = layers[b, None, :] > layers[b, :, None]
        hit &= ox > 0.0
        hit &= oy > 0.0
        ox *= oy
        ox /= area
        hit &= ox > COVER_DROP_FRACTION
        covered[b] = hit.any(axis=2)
    image = centers - camera[:, None, :]
    width, height = viewport
    in_view = (0.0 <= image[..., 0]) & (image[..., 0] < width)
    in_view &= (0.0 <= image[..., 1]) & (image[..., 1] < height)
    return covered, in_view


def generate(config: ScenarioConfig) -> ScenarioRecord:
    """Build a complete scenario: deterministic in the seed, detections equal
    to ground truth when no noise is configured."""
    _validate_noise(config.noise)
    if config.frames < 2:
        raise SimulationError("need at least two frames")
    _validate_view(config)

    rng = np.random.default_rng(_seed(config.seed, "seed"))
    objects = config.objects
    if objects is None:
        objects = _random_layout(rng, config)
    t = _validate_objects(objects)
    snitch = objects[t].name

    script = config.script
    if script is None:
        script = _random_script(rng, objects, config)
    script = tuple(sorted(script, key=lambda e: (e.start, e.end, e.subject)))
    _validate_script(script, objects, config)

    trajectory, target_contained, actions, attach_log = _synthesize(
        script, objects, config, snitch
    )
    camera = tuple(_camera_pose(config.camera, f) for f in range(config.frames))

    # Draw order: later objects above earlier ones, cones above the rest and
    # the moving object above everything.
    index = {o.name: i for i, o in enumerate(objects)}
    layers = np.empty((config.frames, len(objects)))
    layers[:] = [
        i + (500.0 + max(o.size) if o.object_type == "cone" else 0.0)
        for i, o in enumerate(objects)
    ]
    for ev in script:  # at most one mover per frame, as validated
        if ev.kind in MOTION_KINDS:
            layers[ev.start : ev.end + 1, index[ev.subject]] += 10000.0
    # _synthesize keeps each frame's positions in object order.
    centers = np.array([list(positions.values()) for positions in trajectory], dtype=float)
    sizes = np.array([o.size for o in objects], dtype=float)
    covered, in_view = _render_flags(
        centers, sizes, layers, np.array(camera, dtype=float), config.viewport
    )

    left = np.flatnonzero(~in_view[:, t])
    if left.size:
        raise SimulationError(
            f"the target object left the viewport at frame {int(left[0])}; adjust the script"
        )
    target_covered = covered[:, t].tolist()

    visibility: list[frozenset[str]] = []
    clean: list[list[tuple[str, Attributes]]] = []
    labels: list[str] = []
    for f, shown in enumerate((in_view & ~covered).tolist()):
        positions = trajectory[f]
        cx, cy = camera[f]
        detected = [
            (o.name, Attributes(o.object_type, (x - cx, y - cy), o.size))
            for o, (x, y), show in zip(objects, positions.values(), shown)
            if show
        ]
        visibility.append(frozenset([name for name, _ in detected]))
        clean.append(detected)
        if target_contained[f]:
            moved = f > 0 and positions[snitch] != trajectory[f - 1][snitch]
            labels.append("carried" if moved else "contained")
        else:
            labels.append("occluded" if target_covered[f] else "visible")

    return ScenarioRecord(
        frames=config.frames,
        viewport=config.viewport,
        objects=tuple(objects),
        camera=camera,
        truth=tuple(trajectory),
        labels=tuple(labels),
        actions=tuple(actions),
        detections=corrupt(clean, config.noise, config.seed + 7919, config.viewport),
        visibility=tuple(visibility),
        attachments=tuple(attach_log),
    )


def corrupt(
    frames: Sequence[Sequence[tuple[str, Attributes]]],
    noise: NoiseConfig,
    seed: int,
    viewport: Vec2 = (360.0, 240.0),
) -> tuple[tuple[Percept, ...], ...]:
    """Drop detections in bursts, inject short-lived ghosts, jitter centers.

    ``frames`` holds each frame's detected objects as ``(object name,
    Attributes)`` pairs in image coordinates. Returns each frame's percepts:
    the kept detections in input order, then the live ghosts, with ids
    counted from 0. Deterministic in the seed. Miss bursts are keyed to the
    object name; burst and ghost lifetimes draw uniformly from
    1..flicker_burst_length.
    """
    _validate_noise(noise)
    rng = np.random.default_rng(seed)
    width, height = viewport
    miss_left: dict[str, int] = {}
    last_seen: dict[str, Vec2] = {}
    ghosts: list[list] = []  # [Attributes, frames_left]
    out: list[tuple[Percept, ...]] = []
    for frame in frames:
        kept: list[Attributes] = []
        for name, attributes in frame:
            last_seen[name] = attributes.position
            left = miss_left.get(name, 0)
            if left > 0:
                miss_left[name] = left - 1
                continue
            if noise.miss_rate > 0 and rng.random() < noise.miss_rate:
                burst = int(rng.integers(1, noise.flicker_burst_length + 1))
                miss_left[name] = burst - 1
                continue
            kept.append(attributes)
        if noise.ghost_rate > 0 and rng.random() < noise.ghost_rate:
            spawn = None
            for _try in range(20):
                candidate = (
                    float(rng.uniform(20.0, width - 20.0)),
                    float(rng.uniform(20.0, height - 20.0)),
                )
                if noise.ghost_clearance <= 0 or all(
                    math.hypot(candidate[0] - p[0], candidate[1] - p[1])
                    >= noise.ghost_clearance
                    for p in last_seen.values()
                ):
                    spawn = candidate
                    break
            if spawn is not None:
                object_type = str(rng.choice(GHOST_TYPES))
                size = (float(rng.uniform(14.0, 40.0)), float(rng.uniform(14.0, 40.0)))
                lifetime = int(rng.integers(1, noise.flicker_burst_length + 1))
                ghosts.append([Attributes(object_type, spawn, size), lifetime])
        alive: list[list] = []
        for entry in ghosts:
            kept.append(entry[0])
            entry[1] -= 1
            if entry[1] > 0:
                alive.append(entry)
        ghosts = alive
        if noise.jitter_sigma > 0 and kept:
            # One call draws the same numbers as a pair of calls per detection.
            shifts = rng.normal(0.0, noise.jitter_sigma, size=(len(kept), 2)).tolist()
            kept = [
                Attributes(a.object_type, (a.position[0] + dx, a.position[1] + dy), a.size)
                for a, (dx, dy) in zip(kept, shifts)
            ]
        out.append(tuple(map(Percept, range(len(kept)), kept)))
    return tuple(out)


def h1_violations(record: ScenarioRecord) -> list[str]:
    """Frames where an object moved without being observable.

    An object may move only while detected in consecutive frames itself, or
    while attached (directly or transitively) to a root that is. Returns an
    empty list for compliant scenarios.
    """
    out: list[str] = []
    names = [o.name for o in record.objects]
    for f in range(1, record.frames):
        att = {c: p for (c, p, s, e) in record.attachments if s <= f < e}
        for name in names:
            px, py = record.truth[f - 1][name]
            cx, cy = record.truth[f][name]
            if abs(cx - px) <= 1e-9 and abs(cy - py) <= 1e-9:
                continue
            if name in record.visibility[f] and name in record.visibility[f - 1]:
                continue
            chain = ancestors(att, name)
            if chain and all(chain[-1] in record.visibility[g] for g in (f - 1, f)):
                continue
            out.append(f"{name} moved at frame {f} while unobserved")
    return out


# ---------------------------------------------------------------------------
# Layout and script randomization


_DIAG = math.sqrt(0.5)
_DIRECTIONS = (
    (1.0, 0.0),
    (-1.0, 0.0),
    (0.0, 1.0),
    (0.0, -1.0),
    (_DIAG, _DIAG),
    (-_DIAG, _DIAG),
    (_DIAG, -_DIAG),
    (-_DIAG, -_DIAG),
)


def _pick_dest(
    rng: np.random.Generator,
    origin: Vec2,
    dist: float,
    half: float,
    viewport: Vec2,
    margin: float = 12.0,
    keep_clear: Sequence[tuple[Vec2, float]] = (),
) -> Vec2:
    width, height = viewport
    lo_x, hi_x = margin + half, width - margin - half
    lo_y, hi_y = margin + half, height - margin - half
    for idx in rng.permutation(len(_DIRECTIONS)):
        dx, dy = _DIRECTIONS[int(idx)]
        dest = (float(origin[0] + dx * dist), float(origin[1] + dy * dist))
        if not (lo_x <= dest[0] <= hi_x and lo_y <= dest[1] <= hi_y):
            continue
        if any(math.hypot(dest[0] - p[0], dest[1] - p[1]) < gap for p, gap in keep_clear):
            continue
        return dest
    raise SimulationError(f"no feasible destination at distance {dist} from {origin}")


def _random_layout(rng: np.random.Generator, config: ScenarioConfig) -> tuple[ObjectSpec, ...]:
    width, height = config.viewport
    margin = 35.0
    specs: list[ObjectSpec] = []
    placed: list[tuple[Vec2, float]] = []
    for object_type, count in RANDOM_LAYOUT:
        for n in range(count):
            if object_type == "cone":
                side = float(rng.uniform(36.0, 56.0))
            else:
                side = float(DEFAULT_SIZES[object_type] + rng.uniform(-4.0, 4.0))
            size = (side, side)
            for _attempt in range(600):
                x = float(rng.uniform(margin + side / 2, width - margin - side / 2))
                y = float(rng.uniform(margin + side / 2, height - margin - side / 2))
                if all(
                    math.hypot(x - p[0], y - p[1]) >= gap + side / 2 + 12.0
                    for p, gap in placed
                ):
                    break
            else:
                raise SimulationError("could not place objects without crowding")
            specs.append(ObjectSpec(f"{object_type}{n}", object_type, size, (x, y)))
            placed.append(((x, y), side / 2))
    return tuple(specs)


def _random_script(
    rng: np.random.Generator, objects: Sequence[ObjectSpec], config: ScenarioConfig
) -> tuple[EventSpec, ...]:
    kinds = list(RANDOM_EVENT_MIX)
    weights = np.array(list(RANDOM_EVENT_MIX.values()), dtype=float)
    weights = weights / weights.sum()

    position = {o.name: o.start for o in objects}
    half = {o.name: max(o.size) / 2 for o in objects}
    events: list[EventSpec] = []
    t = 12
    # Each event ends before ``t`` moves past it, so every object is free at each ``t``.
    while t < config.frames - 100:
        kind = str(rng.choice(kinds, p=weights))
        if kind == "rotate":
            obj = objects[int(rng.integers(len(objects)))]
            events.append(EventSpec("rotate", obj.name, t, t + 4))
            t += 12
        elif kind in ("slide", "pick_place"):
            obj = objects[int(rng.integers(len(objects)))]
            duration = int(rng.integers(18, 31)) if kind == "slide" else int(rng.integers(8, 13))
            dest = _pick_dest(
                rng, position[obj.name], float(rng.uniform(40.0, 80.0)), half[obj.name], config.viewport
            )
            events.append(EventSpec(kind, obj.name, t, t + duration, dest=dest))
            position[obj.name] = dest
            t += duration + 8
        else:  # contain combo: approach, dwell, carry, dwell, release
            cones = [o for o in objects if o.object_type == "cone"]
            targets = [
                o for o in objects
                if o.object_type != "cone" or o.size[0] < max(c.size[0] for c in cones) - 6
            ] if cones else []
            feasible = []
            for cone in cones:
                for tgt in targets:
                    if tgt.name == cone.name:
                        continue
                    if tgt.size[0] <= cone.size[0] - 4 and tgt.size[1] <= cone.size[1] - 4:
                        feasible.append((cone, tgt))
            if not feasible:
                t += 10
                continue
            cone, tgt = feasible[int(rng.integers(len(feasible)))]
            approach_end = t + 24
            carry_start = approach_end + 7
            carry_end = carry_start + 30
            release_start = carry_end + 8
            release_end = release_start + 20
            carry_dest = _pick_dest(
                rng, position[tgt.name], float(rng.uniform(40.0, 70.0)), half[cone.name], config.viewport
            )
            release_dest = _pick_dest(rng, carry_dest, 70.0, half[cone.name], config.viewport)
            events.append(
                EventSpec("contain", cone.name, t, approach_end, target=tgt.name)
            )
            events.append(EventSpec("slide", cone.name, carry_start, carry_end, dest=carry_dest))
            events.append(
                EventSpec("uncontain", cone.name, release_start, release_end,
                          target=tgt.name, dest=release_dest)
            )
            position[cone.name] = release_dest
            position[tgt.name] = carry_dest
            t = release_end + 10
    return tuple(events)


# ---------------------------------------------------------------------------
# Scenario templates


def _grid_config(
    template: str, seed: int, frames: int, n_objects: int, noise: NoiseConfig
) -> ScenarioConfig:
    """The static and camera templates: 2..8 objects on a jittered 4 x 2 grid
    and no script; the camera template pans the viewport over them."""
    if not (2 <= n_objects <= 8):
        raise SimulationError(f"{template} template supports 2..8 objects")
    camera = ((0, (0.0, 0.0)),)
    if template == "camera":
        if frames < 260:
            raise SimulationError("camera template needs at least 260 frames")
        # Integer waypoint deltas divisible by their spans keep poses exact.
        camera = (
            (0, (0.0, 0.0)),
            (50, (0.0, 0.0)),
            (150, (100.0, 0.0)),
            (210, (100.0, 60.0)),
            (300, (10.0, -30.0)),
        )
    rng = np.random.default_rng(seed)
    slots = [(60.0 + 90.0 * col, 70.0 + 100.0 * row) for row in range(2) for col in range(4)]
    cycle = ("cube", "sphere", "cylinder", "cone")
    snitch_slot = min(6, n_objects - 1)
    objects: list[ObjectSpec] = []
    type_counts: dict[str, int] = {}
    for i in range(n_objects):
        x, y = slots[i]
        x += float(rng.uniform(-6.0, 6.0))
        y += float(rng.uniform(-6.0, 6.0))
        if i == snitch_slot:
            object_type = "snitch"
        else:
            object_type = cycle[i % len(cycle)]
        n = type_counts.get(object_type, 0)
        type_counts[object_type] = n + 1
        side = DEFAULT_SIZES[object_type]
        objects.append(ObjectSpec(f"{object_type}{n}", object_type, (side, side), (x, y)))
    return ScenarioConfig(
        seed=seed, frames=frames, objects=tuple(objects), script=(), camera=camera, noise=noise
    )


def _mixed_config(seed: int, frames: int, noise: NoiseConfig) -> ScenarioConfig:
    if frames < 300:
        raise SimulationError("mixed template needs at least 300 frames")
    rng = np.random.default_rng(seed)
    u = lambda a, b: float(rng.uniform(a, b))
    snitch_pos = (180.0 + u(-15, 15), 120.0 + u(-12, 12))
    cone0 = (70.0 + u(-8, 8), 70.0 + u(-8, 8))
    cone1 = (295.0 + u(-8, 8), 65.0 + u(-8, 8))
    cube0 = (70.0 + u(-8, 8), 180.0 + u(-8, 8))
    sphere0 = (300.0 + u(-8, 8), 185.0 + u(-8, 8))
    objects = (
        ObjectSpec("cone0", "cone", (40.0, 40.0), cone0),
        ObjectSpec("cone1", "cone", (50.0, 50.0), cone1),
        ObjectSpec("cube0", "cube", (30.0, 30.0), cube0),
        ObjectSpec("sphere0", "sphere", (24.0, 24.0), sphere0),
        ObjectSpec("snitch0", "snitch", (18.0, 18.0), snitch_pos),
    )
    viewport = (360.0, 240.0)

    # Occluder pass: the cube crosses straight over the target and parks beyond.
    span = math.hypot(snitch_pos[0] - cube0[0], snitch_pos[1] - cube0[1])
    unit = ((snitch_pos[0] - cube0[0]) / span, (snitch_pos[1] - cube0[1]) / span)
    cube_park = (snitch_pos[0] + 62.0 * unit[0], snitch_pos[1] + 62.0 * unit[1])

    axes = ((11.0, 0.0), (-11.0, 0.0), (0.0, 11.0), (0.0, -11.0))
    delta1 = axes[int(rng.integers(4))]
    settle1 = (snitch_pos[0] + delta1[0], snitch_pos[1] + delta1[1])
    carry1_dest = _pick_dest(rng, settle1, u(60, 80), 20.0, viewport, margin=30.0)
    delta2 = axes[int(rng.integers(4))]
    delta2 = (delta2[0] * 4.0 / 11.0, delta2[1] * 4.0 / 11.0)
    stack1 = (carry1_dest[0] + delta2[0], carry1_dest[1] + delta2[1])
    carry2_dest = _pick_dest(rng, stack1, u(55, 70), 25.0, viewport, margin=30.0)
    cone1_park = _pick_dest(rng, carry2_dest, 70.0, 25.0, viewport, margin=30.0)
    cone0_after = (carry2_dest[0] - delta2[0], carry2_dest[1] - delta2[1])
    cone0_park = _pick_dest(
        rng, cone0_after, 64.0, 20.0, viewport, margin=30.0,
        keep_clear=((cone1_park, 50.0),),
    )
    cube_park2 = _pick_dest(rng, cube_park, 50.0, 15.0, viewport, margin=30.0)
    sphere_dest = _pick_dest(rng, sphere0, 45.0, 12.0, viewport, margin=30.0)

    script = (
        EventSpec("rotate", "sphere0", 8, 9),
        EventSpec("slide", "cube0", 12, 32, dest=cube_park),
        EventSpec("contain", "cone0", 40, 68, target="snitch0", offset=delta1),
        EventSpec("slide", "cone0", 75, 123, dest=carry1_dest),
        EventSpec("contain", "cone1", 130, 158, target="cone0", offset=delta2),
        EventSpec("slide", "cone1", 165, 203, dest=carry2_dest),
        EventSpec("uncontain", "cone1", 210, 230, target="cone0", dest=cone1_park),
        EventSpec("pick_place", "cube0", 234, 242, dest=cube_park2),
        EventSpec("uncontain", "cone0", 246, 266, target="snitch0", dest=cone0_park),
        EventSpec("slide", "sphere0", 272, 290, dest=sphere_dest),
    )
    return ScenarioConfig(seed=seed, frames=frames, objects=objects, script=script, noise=noise)


def _carried_config(seed: int, frames: int, noise: NoiseConfig) -> ScenarioConfig:
    """Carried-heavy scenario with a distractor parked nearer than the
    container at the moment the target disappears (the container approaches
    to ~18-20 px before covering; the distractor sits 15 px out on the far
    side and is never majority-covered)."""
    if frames < 220:
        raise SimulationError("carried template needs at least 220 frames")
    rng = np.random.default_rng(seed)
    sx = 180.0 + float(rng.uniform(-10, 10))
    sy = 120.0 + float(rng.uniform(-10, 10))
    ax = int(rng.choice((-1, 1)))  # container approaches from the -ax side
    cy = int(rng.choice((-1, 1)))  # carry heads along +cy in y
    objects = (
        ObjectSpec("cone0", "cone", (40.0, 40.0), (sx - ax * 140.0, sy)),
        ObjectSpec("cube0", "cube", (30.0, 30.0), (sx, sy - cy * 72.0)),
        ObjectSpec("cylinder0", "cylinder", (26.0, 26.0), (sx - ax * 120.0, sy + cy * 60.0)),
        ObjectSpec("sphere0", "sphere", (16.0, 16.0), (sx + ax * 15.0, sy)),
        ObjectSpec("snitch0", "snitch", (18.0, 18.0), (sx, sy)),
    )
    settle = (sx - ax * 11.0, sy)
    carry_end = (settle[0], sy + cy * 55.0)
    retreat = (settle[0] - ax * 60.0, carry_end[1])
    script = (
        EventSpec("contain", "cone0", 10, 74, target="snitch0", offset=(-ax * 11.0, 0.0)),
        EventSpec("slide", "cone0", 80, 135, dest=carry_end),
        EventSpec("uncontain", "cone0", 150, 176, target="snitch0", dest=retreat),
    )
    return ScenarioConfig(seed=seed, frames=frames, objects=objects, script=script, noise=noise)


def _seed(value, label: str) -> int:
    if integer(value, label) < 0:  # numpy seeds only from non-negative integers
        raise FieldError(f"{label} must be >= 0")
    return value


_OBJECT_KEYS = dict.fromkeys(("name", "type", "size", "start"))
_EVENT_KEYS = dict.fromkeys(("kind", "subject", "start", "end", "dest", "target", "offset"))


def _object_spec(entry: dict, label: str) -> ObjectSpec:
    check_keys(entry, _OBJECT_KEYS, f"{label}.")
    return ObjectSpec(
        name=string(entry.get("name"), f"{label}.name"),
        object_type=string(entry.get("type"), f"{label}.type"),
        size=pair(entry.get("size"), f"{label}.size"),
        start=pair(entry.get("start"), f"{label}.start"),
    )


def _event_spec(entry: dict, label: str) -> EventSpec:
    check_keys(entry, _EVENT_KEYS, f"{label}.")
    dest, target = entry.get("dest"), entry.get("target")
    return EventSpec(
        kind=string(entry.get("kind"), f"{label}.kind"),
        subject=string(entry.get("subject"), f"{label}.subject"),
        start=integer(entry.get("start"), f"{label}.start"),
        end=integer(entry.get("end"), f"{label}.end"),
        dest=None if dest is None else pair(dest, f"{label}.dest"),
        target=None if target is None else string(target, f"{label}.target"),
        offset=pair(entry.get("offset", (0.0, 0.0)), f"{label}.offset"),
    )


def _camera_waypoints(value, label: str) -> tuple[tuple[int, Vec2], ...]:
    shaped = isinstance(value, list) and all(isinstance(e, list) and len(e) == 2 for e in value)
    if not (shaped and value):
        raise FieldError(f"{label} must be a non-empty list of [frame, [x, y]]")
    return tuple(
        (integer(frame, f"{label}[{i}][0]"), pair(pose, f"{label}[{i}][1]"))
        for i, (frame, pose) in enumerate(value)
    )


_NOISE_FIELDS = {
    "miss_rate": number,
    "ghost_rate": number,
    "jitter_sigma": number,
    "flicker_burst_length": integer,
    "ghost_clearance": number,
}


def _noise_config(value, label: str) -> NoiseConfig:
    if not isinstance(value, dict):
        raise FieldError(f"{label} must be an object")
    return NoiseConfig(**read_fields(value, _NOISE_FIELDS, f"{label}."))


_SCENARIO_FIELDS = {
    "seed": _seed,
    "frames": integer,
    "viewport": pair,
    "objects": list_of(_object_spec),
    "script": list_of(_event_spec),
    "camera": _camera_waypoints,
    "noise": _noise_config,
}


def scenario_config_from_json(raw: dict, default_seed: int = 0) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON object.

    Recognized keys are the dataclass fields; ``objects`` entries are
    ``{"name", "type", "size": [w, h], "start": [x, y]}``, ``script``
    entries are ``{"kind", "subject", "start", "end", "dest"?, "target"?,
    "offset"?}``, ``camera`` is a list of ``[frame, [x, y]]`` waypoints and
    ``noise`` takes the ``NoiseConfig`` fields. Omitted sections fall back to
    random generation. A malformed field or an unknown key raises a
    ``ConfigError`` naming the field.
    """
    if not isinstance(raw, dict):
        raise FieldError("scenario config must be a JSON object")
    return ScenarioConfig(**{"seed": default_seed, **read_fields(raw, _SCENARIO_FIELDS)})


# Template name -> builder(seed, frames, n_objects, noise). Only the grid
# templates use the object count; ``build_template`` rejects one for the rest.
TEMPLATES = {
    "static": lambda seed, frames, n, noise: _grid_config("static", seed, frames, n, noise),
    "camera": lambda seed, frames, n, noise: _grid_config("camera", seed, frames, n, noise),
    "mixed": lambda seed, frames, n, noise: _mixed_config(seed, frames, noise),
    "carried": lambda seed, frames, n, noise: _carried_config(seed, frames, noise),
    "random": lambda seed, frames, n, noise: ScenarioConfig(seed=seed, frames=frames, noise=noise),
}


def build_template(
    template: str,
    seed: int,
    frames: int = 300,
    n_objects: int | None = None,
    noise: NoiseConfig = NoiseConfig(),
) -> ScenarioConfig:
    """Named scenario families used by the test suites and the CLI.

    Only the ``static`` and ``camera`` templates take ``n_objects`` (2..8,
    8 when it is None); passing it to another template is an error.
    """
    if template not in TEMPLATES:
        raise SimulationError(f"unknown template {template!r}")
    if n_objects is None:
        n_objects = 8
    elif template not in ("static", "camera"):
        raise SimulationError(f"the {template} template takes no object count")
    return TEMPLATES[template](_seed(seed, "seed"), frames, n_objects, noise)
