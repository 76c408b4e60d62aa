"""Shared data model: percepts, frames, anchors, the world model, and engine configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

Vec2 = tuple[float, float]
Box = tuple[Vec2, Vec2]  # (center, size); image frame: origin top-left, x right, y down

VISIBLE = "visible"
OCCLUDED = "occluded"
OUT_OF_VIEW = "out_of_view"
ATTACHED = "attached"
LOST = "lost"
STATUSES = (VISIBLE, OCCLUDED, OUT_OF_VIEW, ATTACHED, LOST)

# Provisional tracks (not yet promoted to named anchors) use this id prefix.
# Object type names must not start with it.
CANDIDATE_PREFIX = "cand"


def box_corners(box: Box) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2) corners of a center/size box."""
    (cx, cy), (w, h) = box
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


class EngineError(ValueError):
    """Base class for engine-level failures."""


class ConfigError(EngineError):
    """Invalid engine configuration."""


def ancestors(parent_of: Mapping[str, str], name: str) -> list[str]:
    """``name``'s ancestors in the attachment graph, nearest first.

    The walk stops at a name with no entry in ``parent_of`` (so a map of
    resolvable parents only ends a chain at its last resolvable link) and
    raises ``EngineError`` naming the loop when it returns to a name. It is
    the one walk of parent chains in the package.
    """
    chain: list[str] = []
    seen = {name}
    current = name
    while current in parent_of:
        current = parent_of[current]
        if current in seen:
            loop = " -> ".join([name, *chain, current])
            raise EngineError(f"attachment cycle via {loop}")
        chain.append(current)
        seen.add(current)
    return chain


def chain_position(
    name: str,
    parent_of: Mapping[str, str],
    offset_of: Mapping[str, Vec2],
    position_of: Mapping[str, Vec2],
) -> Vec2:
    """Where ``name`` rides its attachment chain: the root's position plus
    the frozen offsets summed from the root down, ``((root + o_k) + ...) +
    o_name``, so a child lands exactly where its parent's own sum puts it."""
    links = [name, *ancestors(parent_of, name)]
    x, y = position_of[links.pop()]
    for link in reversed(links):
        ox, oy = offset_of[link]
        x, y = x + ox, y + oy
    return x, y


# Attributes, Percept and Anchor (and the tracker's HypothesisOutcome) are
# immutable named tuples, not frozen dataclasses: a crowded frame builds
# hundreds of them, and a named tuple is built in well under half the time.
# Derive a changed copy with ``._replace``.


class Attributes(NamedTuple):
    """Perceived or estimated attributes of one object.

    ``position`` is the bounding-box center in pixels, ``size`` is
    (width, height) and must be strictly positive.
    """

    object_type: str
    position: Vec2
    size: Vec2


class Percept(NamedTuple):
    """One detected object in one frame. ``percept_id`` is unique per frame."""

    percept_id: int
    attributes: Attributes
    detector_score: float = 1.0

    @property
    def box(self) -> Box:
        return (self.attributes.position, self.attributes.size)


class Anchor(NamedTuple):
    """A persistent symbol for one physical object.

    ``anchor_id`` has the form ``typeN`` where N counts first anchorings per
    type. Provisional candidates carry reserved ``candN`` ids instead and are
    kept separately on the world model until their confidence first reaches
    the anchoring threshold.

    Invariant: ``parent`` is set iff ``status == ATTACHED`` iff
    ``parent_offset`` is set.
    """

    anchor_id: str
    attributes: Attributes
    confidence: float
    status: str
    last_seen_frame: int
    parent: str | None = None
    parent_offset: Vec2 | None = None

    @property
    def box(self) -> Box:
        return (self.attributes.position, self.attributes.size)

    @property
    def object_type(self) -> str:
        return self.attributes.object_type


@dataclass(frozen=True)
class WorldModel:
    """The tracked state at one frame: named anchors plus provisional candidates.

    ``camera_pose`` is the viewport translation in a world frame; anchor
    positions are expressed in the image frame implied by it.
    ``next_instance`` holds per-type counters for ``typeN`` id assignment and
    is never decremented, so ids are not reused after pruning.
    ``tracker.step`` builds one per frame; its stages take and return the
    anchor and candidate tuples, not the model.
    """

    frame_index: int = -1
    anchors: tuple[Anchor, ...] = ()
    candidates: tuple[Anchor, ...] = ()
    camera_pose: Vec2 = (0.0, 0.0)
    next_instance: Mapping[str, int] = field(default_factory=dict)
    next_candidate: int = 0


@dataclass(frozen=True)
class ActionEvent:
    """A named agent action with ordered arguments (anchor ids or role names)."""

    name: str
    arguments: tuple[str, ...]


# The two actions with an effect, as in LA-CATER: ``contain(container,
# object)`` attaches the object below its container, ``uncontain`` frees it.
CONTAIN = "contain"
UNCONTAIN = "uncontain"


@dataclass(frozen=True)
class FrameInput:
    """Everything the engine consumes for one frame."""

    frame_index: int
    percepts: tuple[Percept, ...]
    camera_pose: Vec2 = (0.0, 0.0)
    actions: tuple[ActionEvent, ...] = ()


@dataclass(frozen=True)
class EngineConfig:
    """Tunable thresholds.

    ``tau`` is the maximum alignment cost for accepting a percept-anchor
    match; percepts and anchors of different types never match.
    ``kappa_anch`` gates hypothesis reasoning and the anchors that
    ``tracker.query`` reports.
    """

    tau: float = 6500.0
    conf_inc: float = 0.1
    conf_dec: float = 0.1
    kappa_anch: float = 0.1
    field_of_view: Vec2 = (360.0, 240.0)

    def __post_init__(self) -> None:
        if not (self.tau > 0):
            raise ConfigError("tau must be > 0")
        if not (0 < self.conf_inc < 1) or not (0 < self.conf_dec < 1):
            raise ConfigError("conf_inc and conf_dec must lie in (0, 1)")
        if not (0 < self.kappa_anch <= 1):
            raise ConfigError("kappa_anch must lie in (0, 1]")
        if not (self.field_of_view[0] > 0 and self.field_of_view[1] > 0):
            raise ConfigError("field_of_view must be positive")


def all_finite(*values: float) -> bool:
    """True when no value is NaN or infinite."""
    return all(map(math.isfinite, values))


def _check_track(track: Anchor, is_candidate: bool, out: list[str]) -> None:
    aid = track.anchor_id
    if not (0.0 <= track.confidence <= 1.0) or not math.isfinite(track.confidence):
        out.append(f"{aid}: confidence {track.confidence} outside [0, 1]")
    if track.status not in STATUSES:
        out.append(f"{aid}: unknown status {track.status!r}")
    if not all_finite(*track.attributes.position):
        out.append(f"{aid}: non-finite position")
    w, h = track.attributes.size
    if not (w > 0 and h > 0):
        out.append(f"{aid}: size components must be > 0")
    has_parent = track.parent is not None
    has_offset = track.parent_offset is not None
    is_attached = track.status == ATTACHED
    if not (has_parent == has_offset == is_attached):
        out.append(
            f"{aid}: parent/status/offset inconsistent "
            f"(parent={track.parent!r}, status={track.status}, offset={track.parent_offset!r})"
        )
    if is_candidate and has_parent:
        out.append(f"{aid}: candidate tracks cannot be attached")


def validate_world_model(model: WorldModel) -> list[str]:
    """Return human-readable descriptions of every broken invariant (empty if none).

    Checked: unique ids, confidence range, status vocabulary, positive sizes,
    finite positions, the parent/status/offset consistency triple, parent
    references resolving to existing anchors, and acyclicity of the
    attachment graph: each anchor whose ``ancestors`` walk closes a cycle,
    a self-parent included, is reported once.
    """
    violations: list[str] = []
    seen: set[str] = set()
    for track in model.anchors + model.candidates:
        if track.anchor_id in seen:
            violations.append(f"{track.anchor_id}: duplicate anchor_id")
        seen.add(track.anchor_id)

    for anchor in model.anchors:
        _check_track(anchor, is_candidate=False, out=violations)
    for cand in model.candidates:
        _check_track(cand, is_candidate=True, out=violations)

    by_id = {}
    for anchor in model.anchors:
        by_id.setdefault(anchor.anchor_id, anchor)

    for anchor in model.anchors:
        if anchor.parent is not None and anchor.parent not in by_id:
            violations.append(f"{anchor.anchor_id}: parent {anchor.parent!r} does not resolve")

    parent_of = {aid: a.parent for aid, a in by_id.items() if a.parent in by_id}
    for aid in parent_of:
        try:
            ancestors(parent_of, aid)
        except EngineError as exc:
            violations.append(f"{aid}: {exc}")

    return violations
