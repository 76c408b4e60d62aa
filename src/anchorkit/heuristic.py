"""Programmed baseline: track the target, or failing that, whatever sits
closest to its last known location."""

from __future__ import annotations

from typing import Sequence

from .core import Box, Percept, Vec2
from .metrics import TARGET_TYPE


class HeuristicTracker:
    """Single-target localisation by nearest-object fallback.

    While a target-type percept is visible it is predicted directly and its
    center recorded as the last known location. When the target vanishes the
    tracker switches to the detected object closest (center distance) to
    that location, following it from then on. Empty frames repeat the
    previous prediction. Distance ties break toward the lowest percept id.
    """

    def __init__(self) -> None:
        self.last_center: Vec2 | None = None
        self.last_prediction: Box | None = None

    def _distance2(self, position: Vec2) -> float:
        assert self.last_center is not None
        dx = position[0] - self.last_center[0]
        dy = position[1] - self.last_center[1]
        return dx * dx + dy * dy

    def step(self, percepts: Sequence[Percept]) -> Box | None:
        targets = [p for p in percepts if p.attributes.object_type == TARGET_TYPE]
        if targets:
            if self.last_center is None:
                pick = min(targets, key=lambda p: p.percept_id)
            else:
                pick = min(
                    targets,
                    key=lambda p: (self._distance2(p.attributes.position), p.percept_id),
                )
        elif percepts and self.last_center is not None:
            pick = min(
                percepts,
                key=lambda p: (self._distance2(p.attributes.position), p.percept_id),
            )
        else:
            # Nothing to lock onto: hold the previous prediction (None until
            # the target has been seen at least once).
            return self.last_prediction

        box = pick.box
        self.last_center = box[0]
        self.last_prediction = box
        return box
