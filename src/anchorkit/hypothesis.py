"""Reasoning about unmatched anchors: occlusion, field-of-view exits, lost-object
decay, confidence bookkeeping, and action-driven attachment effects."""

from __future__ import annotations

from typing import Sequence

from .core import (
    ATTACHED,
    CONTAIN,
    LOST,
    OCCLUDED,
    OUT_OF_VIEW,
    UNCONTAIN,
    ActionEvent,
    Anchor,
    Box,
    EngineConfig,
    EngineError,
    Percept,
    ancestors,
    box_corners,
    chain_position,
)


class ActionError(EngineError):
    """An action event could not be applied to the current world model."""


def _round_conf(value: float) -> float:
    # Keep confidence on a fine grid so repeated fixed increments land exactly
    # on threshold values instead of drifting by float dust.
    return round(value, 9)


def update_confidence(
    anchor: Anchor, was_aligned: bool, config: EngineConfig
) -> tuple[float, bool]:
    """Return (new_confidence, prune_flag) for one cycle.

    Aligned anchors gain ``conf_inc`` capped at 1. Unaligned anchors decay by
    ``conf_dec`` when they are lost or have never reached the anchoring
    threshold; an anchor sustained by a maintaining hypothesis (occluded,
    out of view, attached) keeps its confidence. The prune flag is set iff
    the result dropped below 0.
    """
    c = anchor.confidence
    if was_aligned:
        if c == 1.0:  # already at the cap: skip the rounding
            return 1.0, False
        return min(1.0, _round_conf(c + config.conf_inc)), False
    if anchor.status == LOST or c < config.kappa_anch:
        new = _round_conf(c - config.conf_dec)
        return new, new < 0.0
    return c, False


def boxes_overlap(box_a: Box, box_b: Box) -> bool:
    """True when the boxes share positive area (touching edges do not count):
    the reference that tests compare ``classify_unmatched`` against."""
    ax1, ay1, ax2, ay2 = box_corners(box_a)
    bx1, by1, bx2, by2 = box_corners(box_b)
    return min(ax2, bx2) - max(ax1, bx1) > 0.0 and min(ay2, by2) - max(ay1, by1) > 0.0


def classify_unmatched(
    anchors: Sequence[Anchor], percepts: Sequence[Percept], config: EngineConfig
) -> list[str]:
    """Pick the fate of each unmatched, parentless anchor, in the given order.

    Occluded when the anchor's estimated box overlaps any detected box
    (``boxes_overlap``), otherwise out of view when its estimated center falls
    outside [0, W) x [0, H), otherwise lost. The engine classifies all of a
    frame's anchors in one call, and each percept's corners are computed once.

    Overlap in x is ``min(ax2, bx2) > max(ax1, bx1)``, which equals the
    ``boxes_overlap`` test ``min(ax2, bx2) - max(ax1, bx1) > 0`` for finite
    doubles because ``x - y > 0`` iff ``x > y`` under IEEE gradual underflow.
    It holds iff both boxes keep a positive width after rounding to corners
    (``ax1 < ax2``; a tiny box far from the origin can collapse) and
    ``bx1 < ax2 and ax1 < bx2``; likewise in y. Collapsed boxes are set aside
    first, so the per-pair test is four comparisons.
    """
    if not anchors:
        return []
    corners = [
        (x1, y1, x2, y2)
        for x1, y1, x2, y2 in (box_corners(p.box) for p in percepts)
        if x1 < x2 and y1 < y2
    ]
    width, height = config.field_of_view
    fates = []
    for anchor in anchors:
        ax1, ay1, ax2, ay2 = box_corners(anchor.box)
        for bx1, by1, bx2, by2 in corners if ax1 < ax2 and ay1 < ay2 else ():
            if bx1 < ax2 and ax1 < bx2 and by1 < ay2 and ay1 < by2:
                fates.append(OCCLUDED)
                break
        else:
            x, y = anchor.attributes.position
            fates.append(LOST if 0.0 <= x < width and 0.0 <= y < height else OUT_OF_VIEW)
    return fates


def apply_action(anchors: tuple[Anchor, ...], event: ActionEvent) -> tuple[Anchor, ...]:
    """Return ``anchors`` with the attachment effect of one action event.

    ``contain(container, object)`` attaches the object below its container,
    frozen at their current offset; ``uncontain`` frees ``arguments[1]``;
    any other name is a no-op. Fewer than two arguments, an unknown anchor
    or an attach that would close a cycle (``core.ancestors``) raise
    ``ActionError``; a cycle already among the anchors raises ``EngineError``.
    """
    if event.name != CONTAIN and event.name != UNCONTAIN:
        return anchors
    args = event.arguments
    if len(args) < 2:
        raise ActionError(f"action {event.name!r} needs two arguments, got {args!r}")

    by_id = {a.anchor_id: a for a in anchors}
    parent_id, child_id = args[0], args[1]
    if child_id not in by_id:
        raise ActionError(f"action {event.name!r}: unknown anchor {child_id!r}")
    child = by_id[child_id]

    if event.name == UNCONTAIN:
        if child.parent is None:
            return anchors
        child = child._replace(parent=None, parent_offset=None, status=LOST)
    else:
        if parent_id not in by_id:
            raise ActionError(f"action {event.name!r}: unknown anchor {parent_id!r}")
        parent_of = {aid: a.parent for aid, a in by_id.items() if a.parent in by_id}
        if parent_id == child_id or child_id in ancestors(parent_of, parent_id):
            raise ActionError(
                f"action {event.name!r}: attaching {child_id!r} below {parent_id!r} "
                "would close an attachment cycle"
            )
        cx, cy = child.attributes.position
        px, py = by_id[parent_id].attributes.position
        child = child._replace(parent=parent_id, parent_offset=(cx - px, cy - py), status=ATTACHED)
    return tuple(child if a.anchor_id == child_id else a for a in anchors)


def propagate_attachments(anchors: tuple[Anchor, ...]) -> tuple[Anchor, ...]:
    """Return ``anchors`` with each attached one moved to parent + frozen offset.

    Each follows its ``core.ancestors`` chain, summed root first by
    ``core.chain_position``; an anchor whose parent does not resolve keeps its
    position. Sizes stay at the last detected values, running the pass twice
    changes nothing, and a cycle raises ``EngineError``.
    """
    by_id = {a.anchor_id: a for a in anchors}
    attached = [a for a in anchors if a.parent in by_id]
    if not attached:
        return anchors
    parent_of = {a.anchor_id: a.parent for a in attached}
    offset_of = {a.anchor_id: a.parent_offset for a in attached}
    position_of = {parent: by_id[parent].attributes.position for parent in parent_of.values()}
    updated = []
    for anchor in anchors:
        if anchor.anchor_id not in parent_of:
            updated.append(anchor)
            continue
        position = chain_position(anchor.anchor_id, parent_of, offset_of, position_of)
        if position == anchor.attributes.position:
            updated.append(anchor)
        else:
            attrs = anchor.attributes._replace(position=position)
            updated.append(anchor._replace(attributes=attrs))
    return tuple(updated)
