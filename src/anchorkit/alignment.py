"""Percept-to-anchor correspondence for consecutive frames.

A dissimilarity matrix over (position, size) pairs of the same object
type is capped at the threshold ``tau``, and a least-total one-to-one
assignment on the capped matrix gives the matches: its pairs below
``tau``, which together have the most total ``tau - cost``. A frame of at
most ``_SMALL_CELLS`` pairs is built and read on Python floats, and where
no two percepts share a cheapest kept track, those pairs are taken without
the solver.
``compensate_camera_motion`` moves tracks into the next frame's image
coordinates; the engine calls it before actions and alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Anchor, Attributes, EngineConfig, EngineError, Percept, Vec2


@dataclass(frozen=True)
class CostMatrix:
    """Dissimilarity of every percept (row) against every track (column), in the order given."""

    values: np.ndarray  # shape (n_percepts, n_anchors), non-negative; inf across types


@dataclass(frozen=True)
class AlignmentResult:
    """Accepted matches plus the percepts left over, as the records given.

    Every matched cost is strictly below the threshold; each percept appears
    exactly once across the two fields, and both list percepts in the order
    given.
    """

    matches: tuple[tuple[Percept, Anchor, float], ...]  # (percept, track, cost)
    unmatched_percepts: tuple[Percept, ...]


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


# At most this many cells, a cost matrix is built and its kept cells found on
# Python floats, where numpy's per-call set-up costs more than the arithmetic
# it saves.
_SMALL_CELLS = 64


def build_cost_matrix(
    percepts: Sequence[Percept], anchors: Sequence[Anchor], config: EngineConfig
) -> CostMatrix:
    """entry(i, j) = (dx*dx + dw*dw) + (dy*dy + dh*dh), or inf across types.

    dx, dy, dw and dh are the differences of the box centers and sizes of
    percept i and anchor j, so the sum is ||pos_i - pos_j||^2 +
    ||size_i - size_j||^2, added in the order written. A pair of different
    object types costs inf and so never matches. Either side may be empty,
    yielding a degenerate matrix.
    """
    n_p, n_a = len(percepts), len(anchors)
    if n_p == 0 or n_a == 0:
        return CostMatrix(np.zeros((n_p, n_a), dtype=float))
    if n_p * n_a <= _SMALL_CELLS:
        # The same operations in the same order, on Python floats.
        tracks = [(k, x, y, w, h) for k, (x, y), (w, h) in (a.attributes for a in anchors)]
        rows = []
        for percept in percepts:
            kind, (x, y), (w, h) = percept.attributes
            row = []
            for other, ax, ay, aw, ah in tracks:
                if other != kind:
                    row.append(math.inf)
                    continue
                dx, dy = x - ax, y - ay
                dw, dh = w - aw, h - ah
                row.append((dx * dx + dw * dw) + (dy * dy + dh * dh))
            rows.append(row)
        return CostMatrix(np.array(rows, dtype=float))
    # No overflow warning: a cost that overflowed to inf is never kept.
    with np.errstate(over="ignore"):
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
        values = np.where(kinds[:n_p, None] == kinds[n_p:], values, np.inf)
    return CostMatrix(values)


def solve_assignment(values: np.ndarray, tau: float = math.inf) -> list[tuple[int, int]]:
    """The kept pairs of a least-total matching on ``min(values, tau)``.

    A cell is kept when its cost is below ``tau``, so an infinite cost never
    is; NaN or a negative cost is an error. The pairs come back in ascending
    row order, all on kept cells, with the most total ``tau - cost`` any
    matching of kept cells has (with the default ``tau``: the most pairs,
    then the least total cost). They leave no move of a pair to a lower
    free row or column of equal cost, and no swap of two pairs' columns
    over kept cells that keeps their total and hands the lower row the
    lower column; a sum that overflows is no tie.

    Rows and columns without a kept cell take no part. Where no two of the
    other rows share a cheapest kept column (the lowest among equals), those
    cells are taken; otherwise ``linear_sum_assignment`` solves the capped
    matrix of the rows and columns left, without padding. Either way the tie
    moves are then made; after the certificate, only a swap whose two totals
    round to the same float can be left. The kept cells of a matrix of at
    most ``_SMALL_CELLS`` cells are found on Python floats.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise EngineError("cost matrix must be 2-dimensional")
    if values.size == 0:
        return []
    if not values.min() >= 0.0:
        raise EngineError("cost matrix entries must be non-negative and not NaN")
    # Each row's kept cells as {col: cost}, in ascending column order.
    kept: dict[int, dict[int, float]] = {}
    if values.size <= _SMALL_CELLS:
        for r, row in enumerate(values.tolist()):
            cells = {}
            for c, v in enumerate(row):
                if v < tau:
                    cells[c] = v
            if cells:
                kept[r] = cells
    else:
        r_kept, c_kept = np.nonzero(values < tau)
        for r, c, v in zip(r_kept.tolist(), c_kept.tolist(), values[r_kept, c_kept].tolist()):
            kept.setdefault(r, {})[c] = v

    # No matching gives a row more than its cheapest kept cell, so where the
    # rows' cheapest cells (the lowest column among equals) lie in distinct
    # columns, they are a best matching. ``min`` with a key costs more than
    # reading a row of one cell.
    col_of: dict[int, int] = {}
    row_of: dict[int, int] = {}
    for r, cells in kept.items():
        c = min(cells, key=cells.__getitem__) if len(cells) > 1 else next(iter(cells))
        if c in row_of:
            col_of = _solve_capped(values, kept, tau)
            row_of = {c: r for r, c in col_of.items()}
            break
        col_of[r] = c
        row_of[c] = r
    while _move_a_tie(col_of, row_of, kept):
        pass
    return sorted(col_of.items())


def _solve_capped(values: np.ndarray, kept: dict, tau: float) -> dict[int, int]:
    # ``linear_sum_assignment`` on ``min(values, tau)`` over the rows and
    # columns with a kept cell; the kept pairs of its matching, as {row: col}.
    rows = list(kept)
    cols = sorted({c for cells in kept.values() for c in cells})
    if tau == math.inf:
        # A cap above every kept total ranks matchings by their number of
        # kept pairs first, as a large enough finite tau does.
        tau = 1.0 + 2.0 * sum(sum(cells.values()) for cells in kept.values())
    capped = np.minimum(values[np.ix_(rows, cols)], tau)
    if tau == math.inf and sum(map(len, kept.values())) < capped.size:
        raise EngineError("kept costs sum past the float range; give a finite tau")
    found_rows, found_cols = linear_sum_assignment(capped)
    pairs = ((rows[i], cols[j]) for i, j in zip(found_rows.tolist(), found_cols.tolist()))
    return {r: c for r, c in pairs if c in kept[r]}


def _move_a_tie(col_of: dict[int, int], row_of: dict[int, int], kept: dict) -> bool:
    # Make one move of a pair to a lower free row or column of equal cost,
    # or one total-keeping swap over kept cells that hands the lower row the
    # lower column, and say whether there was one.
    for r, cells in kept.items():
        c = col_of.get(r)
        if c is None:
            # A free row takes a higher row's column at equal cost.
            for d, w in cells.items():
                s = row_of.get(d)
                if s is not None and s > r and kept[s][d] == w:
                    col_of[r], row_of[d] = d, r
                    del col_of[s]
                    return True
            continue
        v = cells[c]
        for d, w in cells.items():
            if d >= c:
                break
            s = row_of.get(d)
            if s is None:
                if w == v:
                    col_of[r], row_of[d] = d, r
                    del row_of[c]
                    return True
            elif s > r and c in kept[s] and v + kept[s][d] == w + kept[s][c] < math.inf:
                col_of[r], col_of[s], row_of[d], row_of[c] = d, c, r, s
                return True
    return False


def align(
    percepts: Sequence[Percept], tracks: Sequence[Anchor], config: EngineConfig
) -> AlignmentResult:
    """Cost matrix and assignment on the pairs below ``config.tau``.

    ``tracks`` are the columns in the order given (the engine passes its
    anchors, then its candidates, which fixes how cost ties break), at
    positions already in the percepts' frame. A percept with no kept pair
    stays unmatched. The result holds the records of ``percepts`` and
    ``tracks`` themselves, not their ids.
    """
    values = build_cost_matrix(percepts, tracks, config).values
    pairs = solve_assignment(values, config.tau)
    matched = {r for r, _ in pairs}
    return AlignmentResult(
        tuple((percepts[r], tracks[c], values.item(r, c)) for r, c in pairs),
        tuple(p for r, p in enumerate(percepts) if r not in matched),
    )
