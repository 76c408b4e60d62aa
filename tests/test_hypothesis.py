from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorkit.core import (
    ATTACHED,
    LOST,
    OCCLUDED,
    OUT_OF_VIEW,
    VISIBLE,
    ActionEvent,
    Anchor,
    Attributes,
    EngineConfig,
    EngineError,
    Percept,
    WorldModel,
    validate_world_model,
)
from anchorkit.hypothesis import (
    ActionError,
    apply_action,
    boxes_overlap,
    classify_unmatched,
    propagate_attachments,
    update_confidence,
)


def make_anchor(aid, kind="cube", pos=(100.0, 100.0), conf=0.5, status=VISIBLE,
                parent=None, offset=None, size=(20.0, 20.0)):
    return Anchor(aid, Attributes(kind, pos, size), conf, status, 0, parent, offset)


def by_id(anchors):
    return {a.anchor_id: a for a in anchors}


def make_percept(pid, kind="cube", pos=(100.0, 100.0), size=(20.0, 20.0)):
    return Percept(pid, Attributes(kind, pos, size))


CONFIG = EngineConfig()  # conf+/- = 0.1, kappa_anch = 0.1


class TestUpdateConfidence:
    def test_first_alignment_from_zero(self):
        conf, prune = update_confidence(make_anchor("a", conf=0.0), True, CONFIG)
        assert conf == 0.1 and not prune

    def test_capped_at_one(self):
        conf, prune = update_confidence(make_anchor("a", conf=1.0), True, CONFIG)
        assert conf == 1.0 and not prune

    def test_unanchored_disappearance_decays_below_zero_and_prunes(self):
        conf, prune = update_confidence(make_anchor("a", conf=0.05), False, CONFIG)
        assert conf == pytest.approx(-0.05) and prune

    def test_zero_result_is_not_pruned(self):
        conf, prune = update_confidence(make_anchor("a", conf=0.1, status=LOST), False, CONFIG)
        assert conf == 0.0 and not prune

    def test_lost_anchor_decays_even_above_threshold(self):
        conf, prune = update_confidence(make_anchor("a", conf=0.9, status=LOST), False, CONFIG)
        assert conf == pytest.approx(0.8) and not prune

    @pytest.mark.parametrize("status", [OCCLUDED, OUT_OF_VIEW, ATTACHED])
    def test_maintaining_hypotheses_freeze_confidence(self, status):
        anchor = make_anchor("a", conf=0.6, status=status,
                             parent="p" if status == ATTACHED else None,
                             offset=(0.0, 0.0) if status == ATTACHED else None)
        conf, prune = update_confidence(anchor, False, CONFIG)
        assert conf == 0.6 and not prune

    def test_repeated_increments_land_exactly_on_one(self):
        conf = 0.0
        for _ in range(10):
            conf, _ = update_confidence(make_anchor("a", conf=conf), True, CONFIG)
        assert conf == 1.0


class TestClassifyUnmatched:
    def test_overlapping_detection_means_occluded(self):
        anchor = make_anchor("a", pos=(100.0, 100.0), size=(20.0, 20.0))
        cone = make_percept(0, kind="cone", pos=(105.0, 100.0), size=(40.0, 40.0))
        assert classify_unmatched([anchor], [cone], CONFIG) == [OCCLUDED]

    def test_touching_edges_do_not_count_as_overlap(self):
        anchor = make_anchor("a", pos=(100.0, 100.0), size=(20.0, 20.0))
        neighbor = make_percept(0, pos=(120.0, 100.0), size=(20.0, 20.0))
        assert not boxes_overlap(anchor.box, neighbor.box)
        assert classify_unmatched([anchor], [neighbor], CONFIG) == [LOST]

    def test_center_outside_viewport_is_out_of_view(self):
        anchor = make_anchor("a", pos=(400.0, 120.0))
        assert classify_unmatched([anchor], [], CONFIG) == [OUT_OF_VIEW]

    def test_boundary_is_exclusive(self):
        outside = make_anchor("a", pos=(360.0, 120.0))
        inside = make_anchor("a", pos=(359.9, 120.0))
        assert classify_unmatched([outside], [], CONFIG) == [OUT_OF_VIEW]
        assert classify_unmatched([inside], [], CONFIG) == [LOST]

    def test_in_view_without_overlap_is_lost(self):
        anchor = make_anchor("a", pos=(100.0, 100.0))
        far = make_percept(0, pos=(300.0, 200.0))
        assert classify_unmatched([anchor], [far], CONFIG) == [LOST]


def reference_fates(anchors, percepts, config):
    """One ``boxes_overlap`` test per anchor-percept pair, as the engine did before batching."""
    width, height = config.field_of_view
    fates = []
    for anchor in anchors:
        x, y = anchor.attributes.position
        if any(boxes_overlap(anchor.box, p.box) for p in percepts):
            fates.append(OCCLUDED)
        elif not (0.0 <= x < width and 0.0 <= y < height):
            fates.append(OUT_OF_VIEW)
        else:
            fates.append(LOST)
    return fates


# Boxes of three kinds: anywhere with any size; on a 10 px grid with sizes of
# 10 or 20 px, so edges touch and corners are shared; far out, where doubles
# are up to 2 apart and a box of a pixel or two collapses when its corners
# round onto one value.
_free_box = st.tuples(
    st.tuples(st.floats(-50.0, 410.0), st.floats(-50.0, 290.0)),
    st.tuples(st.floats(1e-3, 120.0), st.floats(1e-3, 120.0)),
)
_grid = st.integers(-2, 40).map(lambda k: 10.0 * k)
_grid_side = st.sampled_from([10.0, 20.0])
_grid_box = st.tuples(st.tuples(_grid, _grid), st.tuples(_grid_side, _grid_side))
_far = st.floats(1e15, 1e16)
_collapsing_box = st.tuples(
    st.tuples(_far, _far), st.tuples(st.floats(1e-3, 40.0), st.floats(1e-3, 40.0))
)
_box = st.one_of(_free_box, _grid_box, _collapsing_box)

TOUCHING = [((100.0, 100.0), (20.0, 20.0))], [((120.0, 100.0), (20.0, 20.0))]
CORNER = [((100.0, 100.0), (20.0, 20.0))], [((120.0, 120.0), (20.0, 20.0))]
# At 1e16 doubles are 2 apart, so x +- 0.25 rounds to x: a 0.5 px box is a
# point, which lies inside a 40 px box there but shares no area with it.
POINT, SQUARE = ((1e16, 1e16), (0.5, 0.5)), ((1e16, 1e16), (40.0, 40.0))
COLLAPSED_ANCHOR = [POINT], [SQUARE]
COLLAPSED_PERCEPT = [SQUARE], [POINT]


class TestClassifyUnmatchedBatch:
    @settings(max_examples=150)
    @given(anchor_boxes=st.lists(_box, max_size=6), percept_boxes=st.lists(_box, max_size=6))
    @example(*TOUCHING)
    @example(*CORNER)
    @example(*COLLAPSED_ANCHOR)
    @example(*COLLAPSED_PERCEPT)
    def test_agrees_with_per_pair_reference(self, anchor_boxes, percept_boxes):
        anchors = [
            make_anchor(f"a{i}", pos=pos, size=size) for i, (pos, size) in enumerate(anchor_boxes)
        ]
        percepts = [
            make_percept(i, pos=pos, size=size) for i, (pos, size) in enumerate(percept_boxes)
        ]
        assert classify_unmatched(anchors, percepts, CONFIG) == reference_fates(
            anchors, percepts, CONFIG
        )

    @pytest.mark.parametrize(
        "anchor_boxes, percept_boxes", [CORNER, COLLAPSED_ANCHOR, COLLAPSED_PERCEPT]
    )
    def test_boundary_contact_is_not_occlusion(self, anchor_boxes, percept_boxes):
        ((pos, size),), ((ppos, psize),) = anchor_boxes, percept_boxes
        anchor = make_anchor("a", pos=pos, size=size)
        percept = make_percept(0, pos=ppos, size=psize)
        assert not boxes_overlap(anchor.box, percept.box)
        assert classify_unmatched([anchor], [percept], CONFIG) != [OCCLUDED]


class TestApplyAction:
    def test_contain_attaches_target_to_container(self):
        anchors = (
            make_anchor("cone3", kind="cone", pos=(100.0, 100.0)),
            make_anchor("snitch0", kind="snitch", pos=(100.0, 98.0)),
        )
        event = ActionEvent("contain", ("cone3", "snitch0"))
        out = apply_action(anchors, event)
        snitch = by_id(out)["snitch0"]
        assert snitch.parent == "cone3"
        assert snitch.status == ATTACHED
        assert snitch.parent_offset == (0.0, -2.0)

    @pytest.mark.parametrize("name", ["rotate", "pick-up", "wave"])
    def test_unknown_action_is_a_no_op(self, name):
        # Only contain and uncontain have an effect, whatever the arguments.
        anchors = (make_anchor("cube0"), make_anchor("cube1"))
        assert apply_action(anchors, ActionEvent(name, ("cube0",))) == anchors
        assert apply_action(anchors, ActionEvent(name, ("cube0", "cube1"))) == anchors

    def test_unknown_anchor_rejected(self):
        anchors = (make_anchor("cone0", kind="cone"),)
        with pytest.raises(ActionError, match="unknown anchor"):
            apply_action(anchors, ActionEvent("contain", ("cone0", "ghost9")))

    def test_argument_index_out_of_range_rejected(self):
        anchors = (make_anchor("cone0", kind="cone"),)
        for name in ("contain", "uncontain"):
            with pytest.raises(ActionError, match="needs two arguments"):
                apply_action(anchors, ActionEvent(name, ("cone0",)))

    def test_cycle_creating_attach_rejected(self):
        anchors = (
            make_anchor("a0"),
            make_anchor("b0"),
        )
        anchors = apply_action(anchors, ActionEvent("contain", ("a0", "b0")))
        with pytest.raises(ActionError, match="cycle"):
            apply_action(anchors, ActionEvent("contain", ("b0", "a0")))
        with pytest.raises(ActionError, match="cycle"):
            apply_action(anchors, ActionEvent("contain", ("a0", "a0")))

    def test_a_cycle_already_in_the_model_raises_instead_of_hanging(self):
        anchors = (
            make_anchor("cube0", status=ATTACHED, parent="cube1", offset=(1.0, 0.0)),
            make_anchor("cube1", status=ATTACHED, parent="cube0", offset=(-1.0, 0.0)),
            make_anchor("cube2"),
        )
        with pytest.raises(EngineError, match="attachment cycle via cube0 -> cube1 -> cube0"):
            apply_action(anchors, ActionEvent("contain", ("cube0", "cube2")))

    @pytest.mark.parametrize("grandparent", ["hand0", "hand9"])
    def test_attach_below_an_attached_parent(self, grandparent):
        # The cycle check walks case0's chain up to hand0, or stops at the
        # dangling hand9.
        anchors = (
            make_anchor("hand0", pos=(150.0, 90.0)),
            make_anchor("case0", pos=(150.0, 100.0), status=ATTACHED,
                        parent=grandparent, offset=(0.0, 10.0)),
            make_anchor("plug0"),
        )
        out = apply_action(anchors, ActionEvent("contain", ("case0", "plug0")))
        plug = by_id(out)["plug0"]
        assert (plug.parent, plug.parent_offset, plug.status) == ("case0", (-50.0, 0.0), ATTACHED)

    def test_reattach_replaces_parent_never_adds_one(self):
        anchors = (
            make_anchor("plug0"), make_anchor("case0", pos=(150.0, 100.0)),
            make_anchor("case1", pos=(200.0, 100.0)),
        )
        anchors = apply_action(anchors, ActionEvent("contain", ("case0", "plug0")))
        anchors = apply_action(anchors, ActionEvent("contain", ("case1", "plug0")))
        plug = by_id(anchors)["plug0"]
        assert plug.parent == "case1"
        assert validate_world_model(WorldModel(anchors=anchors)) == []

    def test_detach_clears_and_is_idempotent(self):
        anchors = (
            make_anchor("cone0", kind="cone"),
            make_anchor("snitch0", kind="snitch", pos=(101.0, 100.0)),
        )
        anchors = apply_action(anchors, ActionEvent("contain", ("cone0", "snitch0")))
        anchors = apply_action(anchors, ActionEvent("uncontain", ("cone0", "snitch0")))
        snitch = by_id(anchors)["snitch0"]
        assert snitch.parent is None and snitch.parent_offset is None
        again = apply_action(anchors, ActionEvent("uncontain", ("cone0", "snitch0")))
        assert again == anchors


class TestPropagateAttachments:
    def test_static_parent_static_child(self):
        anchors = (
            make_anchor("cone0", pos=(200.0, 150.0)),
            make_anchor("snitch0", pos=(1.0, 1.0), status=ATTACHED,
                        parent="cone0", offset=(0.0, -2.0)),
        )
        out = propagate_attachments(anchors)
        assert by_id(out)["snitch0"].attributes.position == (200.0, 148.0)
        assert propagate_attachments(out) == out  # idempotent

    def test_chain_follows_root_motion(self):
        # plug -> case -> hand; hand moved +30 in x, children shift with it
        anchors = (
            make_anchor("hand0", pos=(130.0, 100.0)),
            make_anchor("case0", pos=(0.0, 0.0), status=ATTACHED,
                        parent="hand0", offset=(-10.0, 0.0)),
            make_anchor("plug0", pos=(0.0, 0.0), status=ATTACHED,
                        parent="case0", offset=(-5.0, 2.0)),
        )
        out = propagate_attachments(anchors)
        case = by_id(out)["case0"]
        plug = by_id(out)["plug0"]
        assert case.attributes.position == (120.0, 100.0)
        assert plug.attributes.position == (115.0, 102.0)

    def test_a_cycle_raises_an_engine_error(self):
        anchors = (
            make_anchor("a0", status=ATTACHED, parent="b0", offset=(1.0, 0.0)),
            make_anchor("b0", status=ATTACHED, parent="a0", offset=(-1.0, 0.0)),
        )
        with pytest.raises(EngineError, match="attachment cycle via a0 -> b0 -> a0"):
            propagate_attachments(anchors)

    def test_sizes_unchanged(self):
        anchors = (
            make_anchor("cone0", pos=(50.0, 50.0)),
            make_anchor("snitch0", pos=(0.0, 0.0), size=(18.0, 18.0),
                        status=ATTACHED, parent="cone0", offset=(2.0, 2.0)),
        )
        out = propagate_attachments(anchors)
        assert by_id(out)["snitch0"].attributes.size == (18.0, 18.0)


def reference_propagate(anchors):
    """The memoised recursive resolver that ``propagate_attachments`` used
    before it walked chains with ``core.ancestors``, kept as the reference."""
    lookup = by_id(anchors)
    resolved = {}

    def final_position(aid, trail):
        if aid in resolved:
            return resolved[aid]
        anchor = lookup[aid]
        if anchor.parent is None or anchor.parent not in lookup:
            position = anchor.attributes.position
        else:
            if aid in trail:
                raise EngineError(f"attachment cycle during propagation at {aid!r}")
            px, py = final_position(anchor.parent, trail | {aid})
            ox, oy = anchor.parent_offset
            position = (px + ox, py + oy)
        resolved[aid] = position
        return position

    return [
        a.attributes.position if a.parent is None else final_position(a.anchor_id, frozenset())
        for a in anchors
    ]


@st.composite
def attachment_models(draw):
    """Up to 8 anchors in any order, each free, below an earlier one or below
    an id that does not resolve. With ``close`` set, the root of one
    attached anchor's chain is hung below that anchor, closing a cycle."""
    coords = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e17, 1e17))
    anchors = {}
    for i in range(draw(st.integers(1, 8))):
        parent = draw(st.sampled_from([None, "cube9", *anchors]))
        pos = (draw(coords), draw(coords))
        if parent is None:
            anchors[f"cube{i}"] = make_anchor(f"cube{i}", pos=pos)
        else:
            anchors[f"cube{i}"] = make_anchor(f"cube{i}", pos=pos, status=ATTACHED,
                                              parent=parent, offset=(draw(coords), draw(coords)))
    attached = [aid for aid, a in anchors.items() if a.parent in anchors]
    if attached and draw(st.booleans()):
        below = draw(st.sampled_from(attached))
        root = below
        while anchors[root].parent in anchors:
            root = anchors[root].parent
        anchors[root] = anchors[root]._replace(
            status=ATTACHED, parent=below, parent_offset=(1.0, 0.0)
        )
    return tuple(draw(st.permutations(list(anchors.values()))))


@settings(max_examples=300)
@given(anchors=attachment_models())
def test_propagation_matches_the_recursive_resolver_bit_for_bit(anchors):
    try:
        expected = reference_propagate(anchors)
    except EngineError:
        with pytest.raises(EngineError, match="attachment cycle via "):
            propagate_attachments(anchors)
        return
    got = [a.attributes.position for a in propagate_attachments(anchors)]
    assert [(x.hex(), y.hex()) for x, y in got] == [(x.hex(), y.hex()) for x, y in expected]
