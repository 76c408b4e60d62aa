"""Percept-to-anchor correspondence for consecutive frames.

A dissimilarity matrix over (position, size) pairs is minimized by optimal
one-to-one assignment, and matches at or above the cost threshold are
discarded. ``compensate_camera_motion`` moves tracks into the next frame's
image coordinates; the engine calls it before actions and alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Anchor, Attributes, EngineConfig, EngineError, Percept, Vec2, WorldModel


@dataclass(frozen=True)
class CostMatrix:
    """Dissimilarity of every percept (row) against every tracked anchor (column)."""

    values: np.ndarray  # shape (n_percepts, n_anchors), non-negative
    percept_ids: tuple[int, ...]
    anchor_ids: tuple[str, ...]


@dataclass(frozen=True)
class AlignmentResult:
    """Accepted matches plus the percepts left over.

    Every matched cost is strictly below the threshold; each percept appears
    at most once across the two fields.
    """

    matches: tuple[tuple[int, str, float], ...]  # (percept_id, anchor_id, cost)
    unmatched_percepts: tuple[int, ...]


def compensate_camera_motion(
    anchors: Iterable[Anchor], pose_prev: Vec2, pose_next: Vec2
) -> tuple[Anchor, ...]:
    """Shift anchor positions opposite to the viewport displacement.

    A static object seen at p while the camera sits at pose_prev appears at
    p - (pose_next - pose_prev) after the camera moves; all other attributes
    are left untouched.
    """
    dx = pose_prev[0] - pose_next[0]
    dy = pose_prev[1] - pose_next[1]
    if dx == 0.0 and dy == 0.0:
        return tuple(anchors)
    # Fields are passed positionally: this runs for every track on every
    # frame of a pan, and keyword arguments make each construction slower.
    shifted = []
    for anchor in anchors:
        attrs = anchor.attributes
        x, y = attrs.position
        shifted.append(
            Anchor(
                anchor.anchor_id,
                Attributes(attrs.object_type, (x + dx, y + dy), attrs.size),
                anchor.confidence,
                anchor.status,
                anchor.last_seen_frame,
                anchor.parent,
                anchor.parent_offset,
            )
        )
    return tuple(shifted)


# No overflow warning: ``solve_assignment`` rejects a cost that overflowed to
# inf, and the product ``np.where`` discards may overflow harmlessly.
@np.errstate(over="ignore")
def build_cost_matrix(
    percepts: Sequence[Percept], anchors: Sequence[Anchor], config: EngineConfig
) -> CostMatrix:
    """entry(i, j) = psi * ((dx*dx + dw*dw) + (dy*dy + dh*dh)).

    dx, dy, dw and dh are the differences of the box centers and sizes of
    percept i and anchor j, so the sum is ||pos_i - pos_j||^2 +
    ||size_i - size_j||^2, added in the order written. psi is 1 when object
    types match and ``config.psi_mismatch`` otherwise. Either side may be
    empty, yielding a degenerate matrix.
    """
    n_p, n_a = len(percepts), len(anchors)
    if n_p == 0 or n_a == 0:
        values = np.zeros((n_p, n_a), dtype=float)
    else:
        # x, y, w and h of every percept, then every anchor, one row per
        # axis; object types become integer codes from one dict.
        codes: dict[str, int] = {}
        cells: list[float] = []
        types: list[int] = []
        for record in (*percepts, *anchors):
            kind, (x, y), (w, h) = record.attributes
            cells += (x, y, w, h)
            types.append(codes.setdefault(kind, len(codes)))
        axes = np.array(cells, dtype=float).reshape(-1, 4).T.copy()
        diff = axes[:, :n_p, None] - axes[:, None, n_p:]
        diff *= diff
        values = diff[0] + diff[2]
        values += diff[1] + diff[3]
        kinds = np.array(types)
        values = np.where(
            kinds[:n_p, None] == kinds[n_p:], values, values * config.psi_mismatch
        )
    return CostMatrix(
        values=values,
        percept_ids=tuple(p.percept_id for p in percepts),
        anchor_ids=tuple(a.anchor_id for a in anchors),
    )


# Above this many pairs ``_canonicalize`` first looks for a cost-neutral swap
# with numpy, which costs more than the Python sweep on a few pairs.
_SWEEP_CUTOFF = 16


def _canonicalize(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> list[tuple[int, int]]:
    # Resolve cost ties deterministically: sweep pairwise swaps that keep the
    # total cost exactly equal, handing the lower row the lower column. The
    # pairs come in ascending row order.
    pairs = list(zip(rows.tolist(), cols.tolist()))
    if len(pairs) > _SWEEP_CUTOFF and not _has_neutral_swap(rows, cols, values):
        # The sweep would pass once over the pairs and swap none.
        return pairs
    changed = True
    while changed:
        changed = False
        for i in range(len(pairs)):
            ri, ci = pairs[i]
            for k in range(i + 1, len(pairs)):
                rk, ck = pairs[k]
                if ci > ck and values[ri, ci] + values[rk, ck] == values[ri, ck] + values[rk, ci]:
                    pairs[i] = (ri, ck)
                    pairs[k] = (rk, ci)
                    ri, ci = pairs[i]
                    changed = True
    return pairs


def _has_neutral_swap(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> bool:
    # The sweep's test, with the same additions, on every inverted pair
    # (i < k and c_i > c_k): the only pairs it can swap.
    if (cols[1:] > cols[:-1]).all():
        return False
    i, k = np.nonzero(cols[:, None] > cols)
    inverted = i < k
    i, k = i[inverted], k[inverted]
    ri, ci, rk, ck = rows[i], cols[i], rows[k], cols[k]
    return bool((values[ri, ci] + values[rk, ck] == values[ri, ck] + values[rk, ci]).any())


def solve_assignment(values: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost one-to-one matching of min(rows, cols) pairs.

    Rectangular matrices are padded to square with constant-cost dummies
    (cost-neutral for which real pairs win; dummy pairs are dropped from the
    result). Ties between equal-cost optima are broken toward giving the
    lowest row index the lowest column.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise EngineError("cost matrix must be 2-dimensional")
    n_rows, n_cols = values.shape
    if n_rows == 0 or n_cols == 0:
        return []
    if not np.isfinite(values).all() or (values < 0).any():
        raise EngineError("cost matrix entries must be finite and non-negative")

    n = max(n_rows, n_cols)
    if n_rows == n_cols:
        square = values
    else:
        pad = 10.0 * float(values.max()) + 1.0
        if not np.isfinite(pad):
            raise EngineError(f"cost matrix entries too large to pad: {float(values.max())}")
        square = np.full((n, n), pad, dtype=float)
        square[:n_rows, :n_cols] = values

    # The row indices come back in ascending order.
    rows, cols = linear_sum_assignment(square)
    real = (rows < n_rows) & (cols < n_cols)
    return _canonicalize(rows[real], cols[real], values)


def align(
    percepts: Sequence[Percept], world_model: WorldModel, config: EngineConfig
) -> AlignmentResult:
    """Cost matrix, assignment, and threshold filtering.

    All tracked entities (named anchors and provisional candidates) take part,
    at the positions they have in the model: its camera pose must already be
    the percepts' frame. Assigned pairs with cost >= tau are dropped, which
    leaves their percepts unmatched.
    """
    cost = build_cost_matrix(percepts, world_model.all_tracks(), config)
    pairs = solve_assignment(cost.values)

    matches = []
    matched_rows: set[int] = set()
    for r, c in pairs:
        value = float(cost.values[r, c])
        if value < config.tau:
            matches.append((cost.percept_ids[r], cost.anchor_ids[c], value))
            matched_rows.add(r)

    unmatched = tuple(pid for i, pid in enumerate(cost.percept_ids) if i not in matched_rows)
    return AlignmentResult(tuple(matches), unmatched)
