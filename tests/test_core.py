from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorkit.core import (
    ATTACHED,
    VISIBLE,
    Anchor,
    Attributes,
    ConfigError,
    EngineConfig,
    EngineError,
    Percept,
    WorldModel,
    all_finite,
    ancestors,
    validate_world_model,
)
from anchorkit.tracker import HypothesisOutcome


def make_anchor(aid, kind="cube", pos=(100.0, 100.0), conf=0.5, status=VISIBLE,
                parent=None, offset=None, size=(20.0, 20.0)):
    return Anchor(
        anchor_id=aid,
        attributes=Attributes(kind, pos, size),
        confidence=conf,
        status=status,
        last_seen_frame=0,
        parent=parent,
        parent_offset=offset,
    )


class TestValueRecords:
    """Attributes, Percept, Anchor and HypothesisOutcome are immutable values
    built by keyword or by position, with the defaults and repr they document."""

    attrs = Attributes("cube", (1.0, 2.0), (3.0, 4.0))

    def records(self):
        return [
            self.attrs,
            Percept(percept_id=7, attributes=self.attrs),
            Anchor(anchor_id="cube0", attributes=self.attrs, confidence=0.5,
                   status=VISIBLE, last_seen_frame=3),
            HypothesisOutcome(anchor_id="cube0", new_status=VISIBLE, new_confidence=0.5,
                              new_position=(1.0, 2.0), reason="matched"),
        ]

    def test_fields_cannot_be_assigned(self):
        for record in self.records():
            for name in type(record).__annotations__:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)

    def test_keyword_construction_and_defaults(self):
        percept, anchor = self.records()[1:3]
        assert percept.detector_score == 1.0
        assert percept.box == ((1.0, 2.0), (3.0, 4.0))
        assert anchor.parent is None and anchor.parent_offset is None
        assert anchor.box == percept.box and anchor.object_type == "cube"
        assert anchor == Anchor("cube0", self.attrs, 0.5, VISIBLE, 3, None, None)

    def test_repr_names_every_field(self):
        attrs, percept, anchor, outcome = self.records()
        attrs_repr = "Attributes(object_type='cube', position=(1.0, 2.0), size=(3.0, 4.0))"
        assert repr(attrs) == attrs_repr
        assert repr(percept) == (
            f"Percept(percept_id=7, attributes={attrs_repr}, detector_score=1.0)"
        )
        assert repr(anchor) == (
            f"Anchor(anchor_id='cube0', attributes={attrs_repr}, confidence=0.5, "
            "status='visible', last_seen_frame=3, parent=None, parent_offset=None)"
        )
        assert repr(outcome) == (
            "HypothesisOutcome(anchor_id='cube0', new_status='visible', new_confidence=0.5, "
            "new_position=(1.0, 2.0), reason='matched')"
        )


def test_empty_model_is_valid():
    assert validate_world_model(WorldModel()) == []


def test_self_parent_is_a_cycle():
    anchor = make_anchor("cube0", status=ATTACHED, parent="cube0", offset=(0.0, 0.0))
    violations = validate_world_model(WorldModel(anchors=(anchor,)))
    assert any("cycle" in v for v in violations)


def test_two_node_cycle_detected():
    a = make_anchor("case0", status=ATTACHED, parent="case1", offset=(1.0, 0.0))
    b = make_anchor("case1", status=ATTACHED, parent="case0", offset=(-1.0, 0.0))
    violations = validate_world_model(WorldModel(anchors=(a, b)))
    assert any("cycle" in v for v in violations)


def test_cycle_reports_name_each_anchor_once_beside_a_dangling_parent():
    lead = make_anchor("c0", status=ATTACHED, parent="a0", offset=(0.0, 1.0))
    a = make_anchor("a0", status=ATTACHED, parent="b0", offset=(1.0, 0.0))
    b = make_anchor("b0", status=ATTACHED, parent="a0", offset=(-1.0, 0.0))
    stray = make_anchor("d0", status=ATTACHED, parent="e9", offset=(0.0, 0.0))
    assert validate_world_model(WorldModel(anchors=(lead, a, b, stray))) == [
        "d0: parent 'e9' does not resolve",
        "c0: attachment cycle via c0 -> a0 -> b0 -> a0",
        "a0: attachment cycle via a0 -> b0 -> a0",
        "b0: attachment cycle via b0 -> a0 -> b0",
    ]


NAMES = [f"n{i}" for i in range(8)]
DANGLING = ["x0", "x1"]


def reference_ancestors(parent_of, name):
    """Brute force: apply ``parent_of`` up to len(parent_of) + 1 times. A walk
    still inside the map after that many steps has, by pigeonhole, revisited
    a name, so it is a cycle (None)."""
    chain = []
    current = name
    for _ in range(len(parent_of) + 1):
        if current not in parent_of:
            return chain
        current = parent_of[current]
        chain.append(current)
    return None


@st.composite
def forests(draw):
    """Each name's parent comes earlier in NAMES, dangles, or is absent."""
    parent_of = {}
    for i, name in enumerate(NAMES):
        parent = draw(st.sampled_from([None, *DANGLING, *NAMES[:i]]))
        if parent is not None:
            parent_of[name] = parent
    return parent_of


# Any map over the names: forests, dangling parents, self-parents and cycles.
parent_maps = st.one_of(
    forests(),
    st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES + DANGLING), max_size=8),
)


@settings(max_examples=300)
@given(parent_of=parent_maps, name=st.sampled_from(NAMES + DANGLING))
@example(parent_of={"n0": "n1", "n1": "n0"}, name="n2")
@example(parent_of={"n0": "n0"}, name="n0")
@example(parent_of={"n2": "n0", "n0": "n1", "n1": "n0"}, name="n2")
def test_ancestors_matches_a_brute_force_walk(parent_of, name):
    expected = reference_ancestors(parent_of, name)
    if expected is not None:
        assert ancestors(parent_of, name) == expected
        return
    with pytest.raises(EngineError, match="^attachment cycle via ") as raised:
        ancestors(parent_of, name)
    loop = str(raised.value).removeprefix("attachment cycle via ").split(" -> ")
    # The walk from ``name`` up to the first name it reaches twice.
    assert loop[0] == name
    assert all(parent_of[a] == b for a, b in zip(loop, loop[1:]))
    assert len(set(loop)) == len(loop) - 1 and loop[-1] in loop[:-1]


def test_duplicate_anchor_ids_flagged():
    model = WorldModel(anchors=(make_anchor("case0"), make_anchor("case0", pos=(5.0, 5.0))))
    violations = validate_world_model(model)
    assert sum("duplicate" in v for v in violations) == 1


def test_parent_status_offset_must_agree():
    missing_offset = make_anchor("a0", status=ATTACHED, parent="b0")
    stray_parent = make_anchor("b0", status=VISIBLE, parent="a0", offset=(0.0, 0.0))
    violations = validate_world_model(WorldModel(anchors=(missing_offset, stray_parent)))
    assert sum("inconsistent" in v for v in violations) == 2


def test_unresolved_parent_reported():
    child = make_anchor("plug0", status=ATTACHED, parent="case9", offset=(0.0, 0.0))
    violations = validate_world_model(WorldModel(anchors=(child,)))
    assert any("does not resolve" in v for v in violations)


def test_bad_geometry_and_confidence_reported():
    bad_size = make_anchor("a0", size=(0.0, 10.0))
    bad_conf = make_anchor("b0", conf=1.5)
    bad_pos = make_anchor("c0", pos=(float("nan"), 0.0))
    bad_status = make_anchor("d0", status="hidden")
    model = WorldModel(anchors=(bad_size, bad_conf, bad_pos, bad_status))
    violations = validate_world_model(model)
    assert any("size" in v for v in violations)
    assert any("confidence" in v for v in violations)
    assert any("position" in v for v in violations)
    assert "d0: unknown status 'hidden'" in violations


@pytest.mark.parametrize("size", [(math.nan, 10.0), (10.0, math.nan), (10.0, 0.0)])
def test_nan_or_non_positive_size_reported(size):
    model = WorldModel(anchors=(make_anchor("a0", size=size),))
    assert validate_world_model(model) == ["a0: size components must be > 0"]


def test_candidates_cannot_be_attached():
    cand = make_anchor("cand0", status=ATTACHED, parent="cube0", offset=(0.0, 0.0))
    model = WorldModel(anchors=(make_anchor("cube0"),), candidates=(cand,))
    assert any("candidate" in v for v in validate_world_model(model))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": 0.0},
        {"tau": -1.0},
        {"conf_inc": 0.0},
        {"conf_dec": 1.0},
        {"kappa_anch": 0.0},
        {"kappa_anch": 1.5},
        {"kappa_anch": math.nan},
        {"field_of_view": (0.0, 240.0)},
        {"field_of_view": (math.nan, 240.0)},
        {"field_of_view": (360.0, math.nan)},
    ],
)
def test_config_invariants_rejected(kwargs):
    with pytest.raises(ConfigError):
        EngineConfig(**kwargs)


def test_an_infinite_field_of_view_is_legal():
    assert EngineConfig(field_of_view=(math.inf, math.inf)).field_of_view == (math.inf, math.inf)


@pytest.mark.parametrize(
    "values, expected",
    [
        ((), True),
        ((0.0, -1e308, 5e-324), True),
        ((1.0, math.nan), False),
        ((math.inf,), False),
        ((-math.inf, 2.0), False),
    ],
)
def test_all_finite(values, expected):
    assert all_finite(*values) is expected


def test_config_defaults_are_valid():
    config = EngineConfig()
    assert config.tau == 6500.0
    assert 0 < config.kappa_anch <= 1
