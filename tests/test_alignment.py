from __future__ import annotations

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from anchorkit import alignment
from anchorkit.alignment import (
    align,
    build_cost_matrix,
    compensate_camera_motion,
    solve_assignment,
)
from anchorkit.core import Anchor, Attributes, EngineConfig, EngineError, Percept


def _matchings(n_rows: int, n_cols: int):
    """Every matching of min(n_rows, n_cols) pairs, in lexicographic
    enumeration order, each as pairs in ascending row order."""
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            yield list(enumerate(cols))
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            yield sorted((r, c) for c, r in enumerate(rows))


def brute_force_assignment(
    values: np.ndarray, tau: float = math.inf
) -> tuple[list[tuple[int, int]], float]:
    """Exhaustive oracle. With the default ``tau``: the first matching of
    strictly least total cost in lexicographic enumeration order, and that
    total. With a finite ``tau``: the kept pairs (cost below ``tau``) of the
    first matching with the strictly greatest total of ``tau - cost`` over its
    kept pairs, and that total."""
    if tau == math.inf:
        def total(pairs):
            return sum(values[r, c] for r, c in pairs)

        best = min(_matchings(*values.shape), key=total)
        return best, total(best)

    def kept(pairs):
        return [(r, c) for r, c in pairs if values[r, c] < tau]

    def gain(pairs):
        return sum(tau - values[r, c] for r, c in kept(pairs))

    best = max(_matchings(*values.shape), key=gain)
    return kept(best), gain(best)


def make_anchor(aid, kind="cube", pos=(0.0, 0.0), size=(20.0, 20.0)):
    return Anchor(aid, Attributes(kind, pos, size), 0.5, "visible", 0)


def make_percept(pid, kind="cube", pos=(0.0, 0.0), size=(20.0, 20.0)):
    return Percept(pid, Attributes(kind, pos, size))


class TestCameraCompensation:
    def test_zero_motion_keeps_positions(self):
        anchors = (make_anchor("a0", pos=(10.0, 20.0)),)
        out = compensate_camera_motion(anchors, (5.0, 5.0), (5.0, 5.0))
        assert out[0].attributes.position == (10.0, 20.0)

    def test_positive_x_shift_moves_objects_left(self):
        anchors = (make_anchor("a0", pos=(100.0, 100.0)),)
        out = compensate_camera_motion(anchors, (0.0, 0.0), (10.0, 0.0))
        assert out[0].attributes.position == (90.0, 100.0)

    def test_mixed_shift(self):
        anchors = (make_anchor("a0", pos=(50.0, 50.0)),)
        out = compensate_camera_motion(anchors, (0.0, 0.0), (-5.0, 3.0))
        assert out[0].attributes.position == (55.0, 47.0)

    def test_other_attributes_untouched(self):
        anchor = make_anchor("a0", pos=(1.0, 2.0))
        (out,) = compensate_camera_motion((anchor,), (0.0, 0.0), (4.0, 4.0))
        assert out.attributes.size == anchor.attributes.size
        assert out.confidence == anchor.confidence
        assert out.status == anchor.status


class TestCostMatrix:
    def test_identical_attributes_cost_zero(self):
        cm = build_cost_matrix([make_percept(0)], [make_anchor("a0")], EngineConfig())
        assert cm.values[0, 0] == 0.0

    def test_position_and_size_terms(self):
        # positions 3,4 apart -> 25; heights 2 apart -> 4
        percept = make_percept(0, pos=(103.0, 104.0), size=(20.0, 22.0))
        anchor = make_anchor("a0", pos=(100.0, 100.0), size=(20.0, 20.0))
        cm = build_cost_matrix([percept], [anchor], EngineConfig())
        assert cm.values[0, 0] == pytest.approx(29.0)

    def test_another_type_costs_inf(self):
        percept = make_percept(0, kind="cone", pos=(103.0, 104.0), size=(20.0, 22.0))
        anchors = [
            make_anchor("a0", kind="cube", pos=(103.0, 104.0), size=(20.0, 22.0)),
            make_anchor("a1", kind="cone", pos=(100.0, 100.0), size=(20.0, 20.0)),
        ]
        cm = build_cost_matrix([percept], anchors, EngineConfig())
        assert cm.values.tolist() == [[math.inf, 29.0]]

    def test_symmetric_under_swapping_sides(self):
        rng = np.random.default_rng(7)
        kinds = ["cube", "cone", "sphere"]
        a_specs = [(kinds[i % 3], tuple(rng.uniform(0, 300, 2)), tuple(rng.uniform(5, 40, 2))) for i in range(4)]
        b_specs = [(kinds[(i + 1) % 3], tuple(rng.uniform(0, 300, 2)), tuple(rng.uniform(5, 40, 2))) for i in range(5)]
        config = EngineConfig()
        forward = build_cost_matrix(
            [make_percept(i, k, p, s) for i, (k, p, s) in enumerate(a_specs)],
            [make_anchor(f"x{i}", k, p, s) for i, (k, p, s) in enumerate(b_specs)],
            config,
        )
        backward = build_cost_matrix(
            [make_percept(i, k, p, s) for i, (k, p, s) in enumerate(b_specs)],
            [make_anchor(f"x{i}", k, p, s) for i, (k, p, s) in enumerate(a_specs)],
            config,
        )
        assert np.allclose(forward.values, backward.values.T)

    def test_degenerate_shapes(self):
        cm = build_cost_matrix([], [make_anchor("a0")], EngineConfig())
        assert cm.values.shape == (0, 1)
        cm = build_cost_matrix([make_percept(0)], [], EngineConfig())
        assert cm.values.shape == (1, 0)

    def test_bit_identical_to_the_einsum_formula(self):
        # The cost as an einsum over (x, y, w, h) differences; the build must
        # give the same bits, not merely close values.
        def einsum_cost(percepts, anchors):
            if not percepts or not anchors:
                return np.zeros((len(percepts), len(anchors)), dtype=float)
            pp = np.array(
                [[*p.attributes.position, *p.attributes.size] for p in percepts], dtype=float
            )
            aa = np.array(
                [[*a.attributes.position, *a.attributes.size] for a in anchors], dtype=float
            )
            diff = pp[:, None, :] - aa[None, :, :]
            dist = np.einsum("ijk,ijk->ij", diff, diff)
            p_types = np.array([p.attributes.object_type for p in percepts])
            a_types = np.array([a.attributes.object_type for a in anchors])
            return np.where(p_types[:, None] == a_types[None, :], dist, np.inf)

        rng = np.random.default_rng(31)
        kinds = ["cube", "cone", "sphere", "snitch"]
        exponents = [-160, -8, 0, 0, 2, 2, 8, 160]
        checked = 0
        for trial in range(400):
            n_p, n_a = (int(n) for n in rng.integers(0, 14, size=2))
            if trial % 50 == 0:
                n_p, n_a = 48, 49

            def side(n):
                # Each cell has its own sign and magnitude, from tiny to overflowing.
                scale = 10.0 ** rng.choice(exponents, size=(n, 4))
                cells = rng.uniform(-1.0, 1.0, size=(n, 4)) * scale
                if trial % 3 == 0:
                    cells = np.round(rng.uniform(0.0, 400.0, size=(n, 4)) * 2.0) / 2.0
                pool = kinds[: 1 + trial % len(kinds)]
                return [
                    (str(rng.choice(pool)), (float(x), float(y)), (float(w), float(h)))
                    for x, y, w, h in cells
                ]

            percepts = [make_percept(i, *spec) for i, spec in enumerate(side(n_p))]
            anchors = [make_anchor(f"a{i}", *spec) for i, spec in enumerate(side(n_a))]
            with np.errstate(over="ignore"):  # cells past 1e154 overflow to inf
                got = build_cost_matrix(percepts, anchors, EngineConfig()).values
                want = einsum_cost(percepts, anchors)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), trial
            checked += got.size
        assert checked > 10_000


class TestSolveAssignment:
    def test_zero_diagonal(self):
        assert solve_assignment(np.array([[0.0, 9.0], [9.0, 0.0]])) == [(0, 0), (1, 1)]

    def test_off_diagonal_optimum(self):
        # 1+4=5 on the diagonal beats... no: brute force gives 2+2=4 off it.
        assert solve_assignment(np.array([[1.0, 2.0], [2.0, 4.0]])) == [(0, 1), (1, 0)]

    def test_rectangular_leaves_worst_row_out(self):
        values = np.array([[1.0, 8.0], [2.0, 1.0], [9.0, 9.0]])
        assert solve_assignment(values) == [(0, 0), (1, 1)]

    def test_tie_broken_toward_lowest_row_lowest_column(self):
        assert solve_assignment(np.array([[5.0, 5.0], [5.0, 5.0]])) == [(0, 0), (1, 1)]
        assert solve_assignment(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]

    def test_rejects_bad_entries(self):
        # An infinite cost is never kept, at any tau.
        assert solve_assignment(np.array([[np.inf]])) == []
        assert solve_assignment(np.array([[np.inf, 1.0], [2.0, np.inf]])) == [(0, 1), (1, 0)]
        assert solve_assignment(np.array([[np.inf, 1.0], [2.0, np.inf]]), 1.5) == [(0, 1)]
        with pytest.raises(EngineError, match="cost matrix must be 2-dimensional"):
            solve_assignment(np.array([1.0, 2.0]))
        # NaN and negative costs raise on either side of ``_SMALL_CELLS``.
        for n in (2, 9):
            assert (n * n <= alignment._SMALL_CELLS) == (n == 2)
            for bad in (-2.0, np.nan, -np.inf):
                values = np.ones((n, n))
                values[-1, 0] = bad
                with pytest.raises(EngineError, match="non-negative and not NaN"):
                    solve_assignment(values)

    def test_an_infinite_tau_ranks_by_kept_pairs_first(self):
        # Rows 0 and 1 can only take column 0, so no matching of kept cells
        # pairs all three rows; the cap stands in for the missing ones.
        values = np.array([[5.0, np.inf, np.inf], [4.0, np.inf, np.inf], [np.inf, 1.0, 1.0]])
        assert solve_assignment(values) == [(1, 0), (2, 1)]
        with pytest.raises(EngineError, match="kept costs sum past the float range"):
            solve_assignment(values * 1e307)

    def test_a_sum_that_overflows_is_no_tie(self):
        # Both totals overflow to inf; the cheaper matching stays.
        big, bigger = 1e308, 1.5e308
        assert solve_assignment(np.array([[bigger, big], [big, bigger]])) == [(0, 1), (1, 0)]
        # The frame a hypothesis property drew near 9.5e153: costs just over
        # half the float maximum, whose tie test overflowed in numpy scalars.
        a = 8.988465674311582e307
        values = np.array([[0.0, a, 0.0], [0.0, a, 0.0], [a, 2.2e276, a]])
        assert solve_assignment(values) == [(0, 0), (1, 2), (2, 1)]

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            n_rows = int(rng.integers(1, 7))
            n_cols = int(rng.integers(1, 7))
            values = rng.uniform(0.0, 100.0, size=(n_rows, n_cols))
            got = solve_assignment(values)
            want, want_cost = brute_force_assignment(values)
            assert got == want
            assert sum(values[r, c] for r, c in got) == pytest.approx(want_cost)

    def test_matches_brute_force_total_on_tied_integer_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            values = rng.integers(0, 4, size=(n, n)).astype(float)
            got = solve_assignment(values)
            _, want_cost = brute_force_assignment(values)
            assert sum(values[r, c] for r, c in got) == pytest.approx(want_cost)


# Small integer matrices with entries 0-2: nearly every optimum is tied.
_tied_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.integers(0, 2), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda cells: np.array(cells, dtype=float).reshape(shape))
)


# Matrices of up to 6 x 6 integers 0-3 and inf, for tau = 3: many cells sit
# at or above tau, and the kept ones tie often.
_capped_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.sampled_from((0.0, 1.0, 2.0, 3.0, math.inf)),
        min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ).map(lambda cells: np.array(cells).reshape(shape))
)


def assert_no_tie_left(values: np.ndarray, got, tau: float = math.inf) -> None:
    """Pairs in ascending row order on kept cells (below ``tau``), each column
    once; no pair has a lower free row or column of equal cost, and no two
    pairs swap over kept cells to an equal total that hands the lower row the
    lower column."""
    rows = [r for r, _ in got]
    cols = [c for _, c in got]
    assert rows == sorted(set(rows)) and len(set(cols)) == len(cols)
    assert all(values[r, c] < tau for r, c in got)
    free_rows = set(range(values.shape[0])) - set(rows)
    free_cols = set(range(values.shape[1])) - set(cols)
    for r, c in got:
        assert not any(values[r, d] == values[r, c] for d in free_cols if d < c)
        assert not any(values[s, c] == values[r, c] for s in free_rows if s < r)
    for (ri, ci), (rk, ck) in itertools.combinations(got, 2):
        if ci > ck and values[ri, ck] < tau and values[rk, ci] < tau:
            assert values[ri, ci] + values[rk, ck] != values[ri, ck] + values[rk, ci]


def large_matrices() -> list[tuple[str, np.ndarray]]:
    """A fixed batch of 17-60-row matrices, square and rectangular: integers
    0-2 and half-integers 0-2 (many tied optima) and continuous values."""
    rng = random.Random(2026)
    cells = {
        "integer": lambda: float(rng.randint(0, 2)),
        "half": lambda: rng.randint(0, 4) / 2.0,
        "continuous": lambda: rng.uniform(0.0, 100.0),
    }
    batch = []
    for kind, cell in cells.items():
        for _ in range(30):
            rows, cols = rng.randint(17, 60), rng.randint(17, 60)
            values = np.array([[cell() for _ in range(cols)] for _ in range(rows)])
            batch.append((kind, values))
    return batch


class TestSolveAssignmentTies:
    """Which of several equal-cost optima ``solve_assignment`` returns.

    The contract is local: no pair moves to a lower free row or column of
    equal cost, and no total-keeping swap over kept cells hands the lower row
    the lower column. That is not always the first optimum in lexicographic
    order, so the exact outputs are pinned as well.
    """

    @settings(max_examples=150)
    @given(values=_tied_matrices)
    def test_optimal_matching_with_no_tie_left_to_swap(self, values):
        got = solve_assignment(values)
        _, want_cost = brute_force_assignment(values)
        assert len(got) == min(values.shape)
        assert_no_tie_left(values, got)
        assert sum(values[r, c] for r, c in got) == want_cost

    @settings(max_examples=200)
    @given(values=_capped_matrices)
    def test_most_kept_total_with_no_tie_left(self, values):
        got, on_arrays = _on_both_paths(lambda: solve_assignment(values, 3.0))
        _, want_gain = brute_force_assignment(values, 3.0)
        assert got == on_arrays
        assert_no_tie_left(values, got, 3.0)
        assert sum(3.0 - values[r, c] for r, c in got) == want_gain

    @pytest.mark.parametrize(
        "values, pairs",
        [
            # Brute force's first optimum is [(0, 0), (1, 1), (2, 3), (3, 2)].
            ([[0, 2, 0, 3], [2, 0, 1, 3], [3, 1, 3, 3], [2, 0, 1, 2]],
             [(0, 0), (1, 2), (2, 1), (3, 3)]),
            # Row 0 moves to the lower free column of equal cost.
            ([[1, 1, 0], [2, 2, 0]], [(0, 0), (1, 2)]),
            # Row 2 is left out: no lower free row costs the same as a pair.
            ([[1, 1, 0, 1], [1, 0, 0, 0], [1, 0, 1, 1], [1, 0, 0, 0], [1, 1, 0, 1]],
             [(0, 0), (1, 1), (3, 3), (4, 2)]),
            # Each row's minimum is strict and in its own column, but the
            # swapped total rounds to the same float, so the sweep swaps.
            ([[2.0**53, 2.0**53 - 1], [2.0**53, 2.0**53 + 2]], [(0, 0), (1, 1)]),
        ],
    )
    def test_tied_optimum_chosen(self, values, pairs):
        assert solve_assignment(np.array(values, dtype=float)) == pairs

    def test_outputs_on_a_fixed_batch_are_pinned(self):
        rng = random.Random(2024)
        out = []
        for _ in range(500):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            values = [[rng.randint(0, 2) for _ in range(cols)] for _ in range(rows)]
            out.append(solve_assignment(np.array(values, dtype=float)))
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == "341dbea0ba657cf291ca49c6c675336754529187ecbf5b960d4586274d257c25"

    def test_outputs_on_a_large_fixed_batch_are_pinned(self):
        out = [solve_assignment(values) for _, values in large_matrices()]
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == "fda358554957f6dd17f8ac647a1cfe9d4487c4ee05c25e896f976f4f978f248d"

    def test_one_cost_neutral_swap_among_many_pairs_is_made(self):
        # 20 rows, one tie: rows a and a+1 cost 1 on either assignment, and
        # no other swap keeps the total. The solver itself returns the swap
        # that gives row a the higher column.
        rng = np.random.default_rng(5)
        for a in range(19):
            values = 100.0 + rng.uniform(0.0, 100.0, size=(20, 20))
            np.fill_diagonal(values, 0.0)
            values[a, a] = values[a + 1, a] = 1.0
            values[a, a + 1] = 0.0
            assert solve_assignment(values) == [(i, i) for i in range(20)]

    @pytest.mark.parametrize("kind", ["integer", "half", "continuous"])
    def test_no_tie_left_to_swap_on_large_matrices(self, kind):
        for _, values in (m for m in large_matrices() if m[0] == kind):
            got = solve_assignment(values)
            assert len(got) == min(values.shape)
            assert_no_tie_left(values, got)
            best_rows, best_cols = linear_sum_assignment(values)
            want_cost = values[best_rows, best_cols].sum()
            assert sum(values[r, c] for r, c in got) == pytest.approx(want_cost, rel=1e-12)


# Small integer boxes of three types, so costs land on both sides of tau and
# tie often.
_coord = st.integers(0, 120).map(float)
_side = st.integers(1, 40).map(float)
_attributes = st.builds(
    Attributes,
    st.sampled_from(("cube", "cone", "snitch")),
    st.tuples(_coord, _coord),
    st.tuples(_side, _side),
)


def _close_side(kinds):
    box = st.builds(
        Attributes,
        st.sampled_from(kinds),
        st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
        st.tuples(st.floats(10.0, 30.0), st.floats(10.0, 30.0)),
    )
    return st.lists(box, max_size=10)


# Frames of up to 10 x 10 boxes of two or three types, all within 40 px of
# each other and 20 px of each other's size: on both sides of
# ``_SMALL_CELLS``, and every pair of one type is below ``tau``.
_close_frames = st.sampled_from((("cube", "cone"), ("cube", "cone", "snitch"))).flatmap(
    lambda kinds: st.tuples(_close_side(kinds), _close_side(kinds))
)


class TestAlign:
    def test_no_anchors_all_percepts_unmatched(self):
        percepts = [make_percept(0), make_percept(1, pos=(50.0, 50.0))]
        result = align(percepts, (), EngineConfig())
        assert result.matches == ()
        assert result.unmatched_percepts == tuple(percepts)

    def test_close_same_type_pair_matches(self):
        tracks = (make_anchor("cube0", pos=(100.0, 100.0)),)
        percept = make_percept(0, pos=(103.0, 100.0))
        result = align([percept], tracks, EngineConfig())
        assert result.matches == ((percept, tracks[0], 9.0),)

    def test_pair_at_or_above_tau_is_demoted(self):
        # 84 px apart -> squared distance 7056 >= 6500
        tracks = (make_anchor("cube0", pos=(0.0, 0.0)),)
        percept = make_percept(0, pos=(84.0, 0.0))
        result = align([percept], tracks, EngineConfig())
        assert result.matches == ()
        assert result.unmatched_percepts == (percept,)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        anchors = tuple(
            make_anchor(f"cube{i}", pos=tuple(rng.uniform(0, 200, 2))) for i in range(4)
        )
        percepts = [make_percept(i, pos=tuple(rng.uniform(0, 200, 2))) for i in range(4)]
        config = EngineConfig()
        base = align(percepts, anchors, config)

        def shift_anchor(a, d):
            pos = (a.attributes.position[0] + d, a.attributes.position[1] + d)
            return make_anchor(a.anchor_id, pos=pos)

        def shift_percept(p, d):
            pos = (p.attributes.position[0] + d, p.attributes.position[1] + d)
            return make_percept(p.percept_id, pos=pos)

        shifted = align(
            [shift_percept(p, 37.0) for p in percepts],
            tuple(shift_anchor(a, 37.0) for a in anchors),
            config,
        )

        def ids(result):
            return [(p.percept_id, a.anchor_id) for p, a, _ in result.matches]

        assert ids(base) == ids(shifted)

    @settings(max_examples=200)
    @given(frame=_close_frames)
    def test_no_match_crosses_types(self, frame):
        # Every same-type pair costs at most 2 * 40**2 + 2 * 20**2 < tau, so
        # each type matches as many of its percepts as it has tracks.
        percepts = [Percept(i, a) for i, a in enumerate(frame[0])]
        tracks = tuple(Anchor(f"t{j}", a, 0.5, "visible", 0) for j, a in enumerate(frame[1]))
        result = align(percepts, tracks, EngineConfig())
        for percept, track, _ in result.matches:
            assert percept.attributes.object_type == track.attributes.object_type
        kinds = [[a.object_type for a in side] for side in frame]
        assert len(result.matches) == sum(
            min(kinds[0].count(k), kinds[1].count(k)) for k in set(kinds[0])
        )

    @settings(max_examples=200)
    @given(
        percept_attributes=st.lists(_attributes, max_size=5),
        track_attributes=st.lists(_attributes, max_size=5),
    )
    def test_contract_holds_on_mixed_types(self, percept_attributes, track_attributes):
        percepts = [Percept(i, a) for i, a in enumerate(percept_attributes)]
        tracks = tuple(
            Anchor(f"t{j}", a, 0.5, "visible", 0) for j, a in enumerate(track_attributes)
        )
        config = EngineConfig()
        result = align(percepts, tracks, config)
        values = build_cost_matrix(percepts, tracks, config).values

        # The result holds the given records: look each one up by identity.
        row = {id(p): r for r, p in enumerate(percepts)}
        col = {id(a): c for c, a in enumerate(tracks)}
        kept = [(row[id(p)], col[id(a)], cost) for p, a, cost in result.matches]
        unmatched = [row[id(p)] for p in result.unmatched_percepts]
        assert sorted([r for r, _, _ in kept] + unmatched) == list(range(len(percepts)))
        assert unmatched == sorted(unmatched)
        cols = [c for _, c, _ in kept]
        assert len(set(cols)) == len(cols)
        for r, c, cost in kept:
            assert cost < config.tau and cost == values[r, c]
        assert [(r, c) for r, c, _ in kept] == solve_assignment(values, config.tau)


def _small_side(scale: str, size: int):
    # Integers tie often; huge coordinates overflow their squares to inf
    # (past 1e154) or the sums of two costs (past 1e153).
    number = {
        "integer": st.integers(0, 6).map(float),
        "float": st.floats(0.0, 300.0),
        "huge": st.floats(-1e154, 1e154) | st.floats(-1e160, 1e160),
    }[scale]
    attributes = st.builds(
        Attributes,
        st.sampled_from(("cube", "cone", "snitch")),
        st.tuples(number, number),
        st.tuples(number, number),
    )
    return st.lists(attributes, min_size=size, max_size=size)


# Wide, square and tall frames of up to 8 x 8 boxes.
_small_frames = st.tuples(
    st.sampled_from(("integer", "float", "huge")), st.integers(0, 8), st.integers(0, 8)
).flatmap(lambda t: st.tuples(_small_side(t[0], t[1]), _small_side(t[0], t[2])))


# Matrices of up to 3 x 3 entries on either side of 2**53, where floats go
# from 1 apart to 2 apart and a sum of two entries rounds.
_rounding_matrices = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(
        st.integers(-1, 2), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda cells: np.array(cells, dtype=float).reshape(shape) + 2.0**53)
)


def _solve_or_error(values: np.ndarray, tau: float = math.inf):
    try:
        return solve_assignment(values, tau)
    except EngineError as exc:
        return type(exc), str(exc)


def _on_both_paths(run):
    """``run()`` as it is, then on the numpy path (the cutoff set to 0)."""
    got = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(alignment, "_SMALL_CELLS", 0)
        return got, run()


class TestSmallFrames:
    """Frames of at most ``_SMALL_CELLS`` pairs are built and solved on Python
    floats; the numpy path is the reference."""

    @settings(max_examples=300)
    @given(
        frame=_small_frames,
        tau=st.sampled_from((6500.0, math.inf)),
    )
    def test_same_costs_and_pairs_as_the_array_path(self, frame, tau):
        percepts = [Percept(i, a) for i, a in enumerate(frame[0])]
        tracks = [Anchor(f"t{j}", a, 0.5, "visible", 0) for j, a in enumerate(frame[1])]
        config = EngineConfig()

        def run():
            values = build_cost_matrix(percepts, tracks, config).values
            return values, _solve_or_error(values, tau)

        (got_values, got), (want_values, want) = _on_both_paths(run)
        assert got_values.dtype == want_values.dtype
        assert np.array_equal(got_values, want_values)
        assert got == want

    @settings(max_examples=300)
    @given(values=_rounding_matrices)
    def test_same_pairs_as_the_array_path_where_sums_round(self, values):
        got, want = _on_both_paths(lambda: _solve_or_error(values))
        assert got == want

    def test_align_builds_and_solves_once_per_call(self, monkeypatch):
        calls = []
        for name in ("build_cost_matrix", "solve_assignment"):
            original = getattr(alignment, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(alignment, name, spy)
        for n in (3, 9):  # 9 cells, then 81: one frame on each side of the cutoff
            assert (n * n <= alignment._SMALL_CELLS) == (n == 3)
            calls.clear()
            percepts = [make_percept(i, pos=(30.0 * i, 0.0)) for i in range(n)]
            tracks = tuple(make_anchor(f"a{i}", pos=(30.0 * i + 1.0, 0.0)) for i in range(n))
            result = align(percepts, tracks, EngineConfig())
            assert len(result.matches) == n
            assert sorted(calls) == ["build_cost_matrix", "solve_assignment"]
