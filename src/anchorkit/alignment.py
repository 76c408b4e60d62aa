"""Percept-to-anchor correspondence for consecutive frames.

A dissimilarity matrix over (position, size) pairs is minimized by optimal
one-to-one assignment, and matches at or above the cost threshold are
discarded. A frame of at most ``_SMALL_CELLS`` pairs is built and matched on
Python floats, and where every percept's cheapest track is strict and no two
percepts share it, that matching is taken without the solver; the result is
the same. ``compensate_camera_motion`` moves tracks into the next frame's
image coordinates; the engine calls it before actions and alignment.
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

    values: np.ndarray  # shape (n_percepts, n_anchors), non-negative


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


# At most this many cells, a cost matrix is built and solved on Python floats,
# where numpy's per-call set-up costs more than the arithmetic it saves. Square
# frames whose row minima collide break even at about 64 cells.
_SMALL_CELLS = 64


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
        return CostMatrix(np.zeros((n_p, n_a), dtype=float))
    if n_p * n_a <= _SMALL_CELLS:
        # The same operations in the same order, on Python floats.
        psi = config.psi_mismatch
        tracks = [(k, x, y, w, h) for k, (x, y), (w, h) in (a.attributes for a in anchors)]
        rows = []
        for percept in percepts:
            kind, (x, y), (w, h) = percept.attributes
            row = []
            for other, ax, ay, aw, ah in tracks:
                dx, dy = x - ax, y - ay
                dw, dh = w - aw, h - ah
                cost = (dx * dx + dw * dw) + (dy * dy + dh * dh)
                row.append(cost if other == kind else cost * psi)
            rows.append(row)
        return CostMatrix(np.array(rows, dtype=float))
    # No overflow warning: ``solve_assignment`` rejects a cost that overflowed
    # to inf, and the product ``np.where`` discards may overflow harmlessly.
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
        values = np.where(
            kinds[:n_p, None] == kinds[n_p:], values, values * config.psi_mismatch
        )
    return CostMatrix(values)


# Above this many pairs ``solve_assignment`` first looks for a cost-neutral
# swap with numpy, which costs more than the Python sweep on a few pairs.
_SWEEP_CUTOFF = 16


def _canonicalize(pairs: list[tuple[int, int]], values: Sequence) -> list[tuple[int, int]]:
    # Resolve cost ties deterministically: sweep pairwise swaps that keep the
    # total cost exactly equal, handing the lower row the lower column. The
    # pairs come in ascending row order; ``values`` is a list of rows.
    changed = True
    while changed:
        changed = False
        for i in range(len(pairs)):
            ri, ci = pairs[i]
            for k in range(i + 1, len(pairs)):
                rk, ck = pairs[k]
                if ci > ck and values[ri][ci] + values[rk][ck] == values[ri][ck] + values[rk][ci]:
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
    lowest row index the lowest column. A matrix of at most ``_SMALL_CELLS``
    cells is solved on Python floats: where it has no more rows than columns
    and every row has one strict minimum, in a column no other row's minimum
    is in, those minima are the solver's own result and are taken without
    calling it. The result is the same either way.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise EngineError("cost matrix must be 2-dimensional")
    n_rows, n_cols = values.shape
    if n_rows == 0 or n_cols == 0:
        return []
    if values.size <= _SMALL_CELLS:
        rows = values.tolist()
        mins = list(map(min, rows))
        # A finite sum rules out inf and NaN (a guard on the extremes would
        # miss NaN) and overflow of the padding; any other matrix takes the
        # array path, which raises or pads as it always has.
        if math.isfinite(10.0 * sum(map(sum, rows)) + 1.0) and min(mins) >= 0.0:
            return _solve_small(rows, mins, n_cols)
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
    rows, cols = rows[real], cols[real]
    pairs = list(zip(rows.tolist(), cols.tolist()))
    if len(pairs) > _SWEEP_CUTOFF and not _has_neutral_swap(rows, cols, values):
        # The sweep would pass once over the pairs and swap none.
        return pairs
    # Row views: ``values[r][c]`` on the 2-D array itself is slower.
    return _canonicalize(pairs, list(values))


def _solve_small(rows: list[list[float]], mins: list[float], n_cols: int) -> list[tuple[int, int]]:
    # ``solve_assignment`` on the lists of a small, finite, non-negative
    # matrix, given the minimum of each row.
    n_rows = len(rows)
    # The solver starts from zero duals and gives each row in turn its
    # cheapest free column, computing 0 + c - 0 - 0. With one strict minimum
    # per row, in distinct columns, that is every row's minimum, and the pad
    # rows take the columns left over. A matrix with more rows than columns
    # never has distinct minimum columns.
    cols = [row.index(best) for row, best in zip(rows, mins) if row.count(best) == 1]
    if len(set(cols)) == n_rows:
        # The sweep stays: a swap can keep a rounded total equal.
        return _canonicalize(list(enumerate(cols)), rows)
    n = max(n_rows, n_cols)
    pad = 10.0 * max(map(max, rows)) + 1.0
    square = [row + [pad] * (n - n_cols) for row in rows] + [[pad] * n] * (n - n_rows)
    # A square matrix's row indices come back as 0, 1, ..., n - 1.
    found = linear_sum_assignment(square)[1].tolist()[:n_rows]
    return _canonicalize([(r, c) for r, c in enumerate(found) if c < n_cols], rows)


def align(
    percepts: Sequence[Percept], tracks: Sequence[Anchor], config: EngineConfig
) -> AlignmentResult:
    """Cost matrix, assignment, and threshold filtering.

    ``tracks`` are the columns in the order given (the engine passes its
    anchors, then its candidates, which fixes how cost ties break), at
    positions already in the percepts' frame. Assigned pairs with cost >=
    tau are dropped, which leaves their percepts unmatched. The result holds
    the records of ``percepts`` and ``tracks`` themselves, not their ids.
    """
    values = build_cost_matrix(percepts, tracks, config).values
    pairs = solve_assignment(values)

    matches = []
    matched_rows: set[int] = set()
    for r, c in pairs:
        value = float(values[r, c])
        if value < config.tau:
            matches.append((percepts[r], tracks[c], value))
            matched_rows.add(r)

    unmatched = tuple(p for r, p in enumerate(percepts) if r not in matched_rows)
    return AlignmentResult(tuple(matches), unmatched)
