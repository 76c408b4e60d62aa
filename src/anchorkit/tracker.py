"""Per-frame engine cycle: compensate, apply actions, align, reason, maintain.

``step`` is a pure function on the world model; ``AnchoringEngine`` wraps it
for stream processing. ``query`` lists the anchors at the anchoring gate and
``predict_target`` picks the best estimate of one object type.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .alignment import align, compensate_camera_motion
from .core import (
    CANDIDATE_PREFIX,
    LOST,
    VISIBLE,
    OCCLUDED,
    OUT_OF_VIEW,
    Anchor,
    EngineConfig,
    EngineError,
    FrameInput,
    Vec2,
    WorldModel,
    validate_world_model,
)
from .hypothesis import (
    ActionError,
    apply_action,
    classify_unmatched,
    propagate_attachments,
    update_confidence,
)

REASON_MATCHED = "matched"
REASON_OCCLUDED = "occluder_overlap"
REASON_OUT_OF_VIEW = "outside_fov"
REASON_PARENT_FOLLOW = "parent_follow"
REASON_DECAY = "decay"
REASON_PRUNED = "pruned"
REASON_NEWLY_ANCHORED = "newly_anchored"


class HypothesisOutcome(NamedTuple):
    """What happened to one tracked entity during a cycle."""

    anchor_id: str
    new_status: str
    new_confidence: float
    new_position: Vec2
    reason: str


# Reason codes of the hypotheses that keep an unmatched anchor in place.
_HELD_REASONS = {OCCLUDED: REASON_OCCLUDED, OUT_OF_VIEW: REASON_OUT_OF_VIEW}


# The helpers below make the tracks and outcomes on the per-track paths of
# ``step``. They pass every field positionally, which is cheaper than keywords
# or ``._replace``.


def _restate(track: Anchor, status: str, confidence: float) -> Anchor:
    # An unmatched track with a new status and confidence; an unchanged track
    # is kept as it is. ``is``: a held confidence comes back as the same float
    # object, while a decayed one can equal it and still differ in the sign
    # of zero.
    if status == track.status and confidence is track.confidence:
        return track
    return Anchor(
        track.anchor_id,
        track.attributes,
        confidence,
        status,
        track.last_seen_frame,
        track.parent,
        track.parent_offset,
    )


def _outcome(track: Anchor, reason: str) -> HypothesisOutcome:
    return HypothesisOutcome(
        track.anchor_id, track.status, track.confidence, track.attributes.position, reason
    )


def step(
    model: WorldModel,
    frame: FrameInput,
    config: EngineConfig,
    *,
    check_invariants: bool = False,
) -> tuple[WorldModel, list[HypothesisOutcome]]:
    """Run one full cycle and return the successor model plus per-track outcomes.

    Stage order: camera compensation, action effects, alignment, a match pass
    (matched tracks adopt their percept; candidates that reach the anchoring
    threshold are promoted), attachment propagation, hypothesis
    classification of every unmatched anchor in one call, a maintenance pass
    (confidence decay and pruning), then candidate creation for unmatched
    percepts. Both passes visit anchors, then candidates. A matched anchor
    that was attached detaches implicitly and resumes independent tracking.
    Percepts are taken in ``percept_id`` order, so the result depends on the
    frame's set of percepts, never on the order ``frame.percepts`` lists them.
    The stages pass anchor tuples; the successor model is built once, at the end.
    Each outcome is read off the track the cycle built, pruned tracks included.

    Raises ``EngineError`` when a track of ``model`` was seen after
    ``model.frame_index``, or when a candidate whose object type starts with
    the reserved ``cand`` prefix would be promoted.
    """
    if frame.frame_index <= model.frame_index:
        raise EngineError(
            f"frame index must increase (got {frame.frame_index} after {model.frame_index})"
        )
    t = frame.frame_index
    percepts = sorted(frame.percepts, key=attrgetter("percept_id"))

    anchors = compensate_camera_motion(model.anchors, model.camera_pose, frame.camera_pose)
    candidates = compensate_camera_motion(model.candidates, model.camera_pose, frame.camera_pose)

    # Action effects come before alignment so an attach in this frame shields
    # the child from being classified lost below. Events that no longer
    # resolve (pruned anchors, malformed annotations) are skipped, not fatal.
    for event in frame.actions:
        try:
            anchors = apply_action(anchors, event)
        except ActionError:
            continue

    result = align(percepts, anchors + candidates, config)
    match_for = {track.anchor_id: percept for percept, track, _ in result.matches}

    # Match pass. A track's role is the store it sits in, never its id. Each
    # pass reads the tuples in ``tracked`` and refills the two stores.
    outcomes: list[HypothesisOutcome] = []
    next_instance = dict(model.next_instance)
    tracked = (anchors, candidates)
    anchors, candidates = [], []
    for store, tracks in zip((anchors, candidates), tracked):
        for track in tracks:
            if track.last_seen_frame > model.frame_index:
                raise EngineError(
                    f"{track.anchor_id}: last seen at frame {track.last_seen_frame}, "
                    f"after the model's frame {model.frame_index}"
                )
            percept = match_for.get(track.anchor_id)
            if percept is None:
                store.append(track)
                continue
            conf, _ = update_confidence(track, True, config)
            anchor_id = track.anchor_id
            reason = REASON_MATCHED
            target = store
            if store is candidates and conf >= config.kappa_anch:
                kind = track.object_type
                if kind.startswith(CANDIDATE_PREFIX):
                    raise EngineError(
                        f"object type {kind!r} uses the reserved prefix {CANDIDATE_PREFIX!r}"
                    )
                number = next_instance.get(kind, 0)
                next_instance[kind] = number + 1
                anchor_id = f"{kind}{number}"
                reason = REASON_NEWLY_ANCHORED
                target = anchors
            # A percept matches only a track of its own type, so the track
            # takes the percept's attributes as they are.
            track = Anchor(anchor_id, percept.attributes, conf, VISIBLE, t, None, None)
            target.append(track)
            outcomes.append(_outcome(track, reason))

    anchors = propagate_attachments(tuple(anchors))

    # Frame indices strictly increase and no track was seen after the model's
    # frame, so a track was matched in this cycle iff it was last seen at t.
    # Every unmatched, parentless anchor at the anchoring gate is classified
    # in one call.
    held = [
        a
        for a in anchors
        if a.last_seen_frame != t and a.parent is None and a.confidence >= config.kappa_anch
    ]
    fate = dict(zip([a.anchor_id for a in held], classify_unmatched(held, percepts, config)))

    # Maintenance pass. Candidates never have a parent and stay below
    # kappa_anch, so they skip the anchor-only branches.
    tracked = (anchors, candidates)
    anchors, candidates = [], []
    pruned_ids: set[str] = set()
    for store, tracks in zip((anchors, candidates), tracked):
        for track in tracks:
            if track.last_seen_frame == t:
                store.append(track)
                continue
            if track.parent is not None:
                store.append(track)
                outcomes.append(_outcome(track, REASON_PARENT_FOLLOW))
                continue
            if store is candidates:
                status = LOST
            else:
                status = fate.get(track.anchor_id, track.status)
            track = _restate(track, status, track.confidence)
            conf, prune = update_confidence(track, False, config)
            track = _restate(track, status, conf)
            if prune:
                pruned_ids.add(track.anchor_id)
                outcomes.append(_outcome(track, REASON_PRUNED))
                continue
            store.append(track)
            reason = _HELD_REASONS.get(status, REASON_DECAY)
            outcomes.append(_outcome(track, reason))

    if pruned_ids:
        # Children of pruned parents are released in place, lost, and get
        # reclassified next cycle; each child's outcome reports the released track.
        released = {
            a.anchor_id: a._replace(parent=None, parent_offset=None, status=LOST)
            for a in anchors
            if a.parent in pruned_ids
        }
        if released:
            anchors = [released.get(a.anchor_id, a) for a in anchors]
            outcomes = [
                _outcome(released[o.anchor_id], o.reason) if o.anchor_id in released else o
                for o in outcomes
            ]

    next_candidate = model.next_candidate
    for percept in result.unmatched_percepts:
        cand = Anchor(
            anchor_id=f"{CANDIDATE_PREFIX}{next_candidate}",
            attributes=percept.attributes,
            confidence=0.0,
            status=VISIBLE,
            last_seen_frame=t,
        )
        next_candidate += 1
        candidates.append(cand)

    new_model = WorldModel(
        frame_index=t,
        anchors=tuple(anchors),
        candidates=tuple(candidates),
        camera_pose=frame.camera_pose,
        next_instance=next_instance,
        next_candidate=next_candidate,
    )

    if check_invariants:
        broken = validate_world_model(new_model)
        if broken:
            raise EngineError("world model invariants broken: " + "; ".join(broken))
    return new_model, outcomes


def query(model: WorldModel, config: EngineConfig) -> list[Anchor]:
    """Anchors at the anchoring gate ``kappa_anch``, in anchoring order."""
    return [a for a in model.anchors if a.confidence >= config.kappa_anch]


def predict_target(
    model: WorldModel, config: EngineConfig, target_type: str
) -> Anchor | None:
    """Best current estimate of the designated target object, if any.

    Prefers the earliest-anchored target-type anchor at the anchoring gate;
    before promotion the strongest provisional candidate fills in so the
    localisation channel is comparable with baselines that always predict.
    """
    for anchor in model.anchors:
        if anchor.object_type == target_type and anchor.confidence >= config.kappa_anch:
            return anchor
    best: Anchor | None = None
    for cand in model.candidates:
        if cand.object_type != target_type:
            continue
        if best is None or cand.confidence > best.confidence:
            best = cand
    return best


class AnchoringEngine:
    """Stateful wrapper running one detection stream through ``step``."""

    def __init__(self, config: EngineConfig, *, check_invariants: bool = False):
        self.config = config
        self.model = WorldModel()
        self.check_invariants = check_invariants

    def step(self, frame: FrameInput) -> list[HypothesisOutcome]:
        self.model, outcomes = step(
            self.model, frame, self.config, check_invariants=self.check_invariants
        )
        return outcomes

    def query(self) -> list[Anchor]:
        return query(self.model, self.config)

    def predict(self, target_type: str) -> Anchor | None:
        return predict_target(self.model, self.config, target_type)
