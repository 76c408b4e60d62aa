from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from anchorkit.core import (
    ATTACHED,
    LOST,
    OCCLUDED,
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
from anchorkit.pipeline import run_engine_stream
from anchorkit.simulate import NoiseConfig, build_template, generate
from anchorkit.tracker import AnchoringEngine, FrameInput, query, step


def make_percept(pid, kind="cube", pos=(100.0, 100.0), size=(20.0, 20.0)):
    return Percept(pid, Attributes(kind, pos, size))


def make_anchor(aid, kind="cube", pos=(100.0, 100.0), conf=0.5, status=VISIBLE,
                parent=None, offset=None):
    return Anchor(aid, Attributes(kind, pos, (20.0, 20.0)), conf, status, 0, parent, offset)


def by_id(anchors):
    return {a.anchor_id: a for a in anchors}


def frame(t, percepts=(), camera=(0.0, 0.0), actions=()):
    return FrameInput(t, tuple(percepts), camera, tuple(actions))


CONFIG = EngineConfig()


def test_object_in_two_consecutive_frames_is_anchored_after_frame_two():
    engine = AnchoringEngine(CONFIG, check_invariants=True)
    engine.step(frame(0, [make_percept(0)]))
    assert engine.query() == []  # candidate only, c = 0
    engine.step(frame(1, [make_percept(0)]))
    anchored = engine.query()
    assert [a.anchor_id for a in anchored] == ["cube0"]
    assert anchored[0].confidence == pytest.approx(0.1)


def test_promotion_frame_reports_visible_status_and_single_outcome():
    engine = AnchoringEngine(CONFIG, check_invariants=True)
    engine.step(frame(0, [make_percept(0)]))
    outcomes = engine.step(frame(1, [make_percept(0)]))
    assert [(o.anchor_id, o.reason, o.new_status) for o in outcomes] == [
        ("cube0", "newly_anchored", VISIBLE)
    ]
    assert engine.model.anchors[0].status == VISIBLE


def test_a_percept_of_another_type_starts_a_candidate():
    # A cone percept on a cube anchor never matches it: the cube is held as
    # occluded behind the cone, in place, and the cone starts a candidate.
    cube = make_anchor("cube0")
    percept = make_percept(0, kind="cone", pos=(103.0, 100.0), size=(22.0, 20.0))
    model = WorldModel(frame_index=0, anchors=(cube,))
    model, outcomes = step(model, frame(1, [percept]), CONFIG)
    [held] = model.anchors
    assert (held.status, held.attributes, held.last_seen_frame) == (OCCLUDED, cube.attributes, 0)
    [candidate] = model.candidates
    assert (candidate.attributes, candidate.last_seen_frame) == (percept.attributes, 1)
    assert [(o.anchor_id, o.reason) for o in outcomes] == [("cube0", "occluder_overlap")]


def test_empty_frame_on_empty_model_is_a_fixed_point():
    model, outcomes = step(WorldModel(), frame(0), CONFIG)
    assert model.anchors == () and model.candidates == ()
    assert outcomes == []
    model2, _ = step(model, frame(1), CONFIG)
    assert model2.anchors == () and model2.candidates == ()


def test_non_monotone_frame_index_rejected():
    model, _ = step(WorldModel(), frame(3, [make_percept(0)]), CONFIG)
    with pytest.raises(ValueError, match="frame index"):
        step(model, frame(3), CONFIG)
    with pytest.raises(ValueError, match="frame index"):
        step(model, frame(1), CONFIG)


def test_track_seen_after_the_model_frame_is_rejected():
    # "Matched this cycle" is read as "last seen at this frame", which only
    # holds when no track is newer than the model.
    lost = Anchor("cube0", Attributes("cube", (100.0, 100.0), (20.0, 20.0)), 0.5, LOST, 0)
    model = WorldModel(anchors=(lost,))
    with pytest.raises(EngineError, match="cube0: last seen at frame 0"):
        step(model, frame(0), CONFIG)


def test_the_invariant_check_rejects_a_broken_model():
    # A candidate that shares an anchor's id outlives the step.
    model = WorldModel(
        anchors=(make_anchor("cube0"),),
        candidates=(make_anchor("cube0", pos=(300.0, 200.0)),),
        frame_index=0,
    )
    step(model, frame(1), CONFIG)
    with pytest.raises(EngineError, match="invariants broken: cube0: duplicate anchor_id"):
        step(model, frame(1), CONFIG, check_invariants=True)


def test_a_contain_on_a_model_holding_a_cycle_raises_instead_of_hanging():
    model = WorldModel(
        anchors=(
            make_anchor("cube0", status=ATTACHED, parent="cube1", offset=(1.0, 0.0)),
            make_anchor("cube1", status=ATTACHED, parent="cube0", offset=(-1.0, 0.0)),
            make_anchor("cube2", pos=(200.0, 100.0)),
        ),
        frame_index=0,
    )
    contain = ActionEvent("contain", ("cube0", "cube2"))
    with pytest.raises(EngineError, match="attachment cycle via cube0 -> cube1 -> cube0"):
        step(model, frame(1, actions=[contain]), CONFIG)


# Shrinking a 100-frame scenario takes minutes; the failing seed is report enough.
@settings(max_examples=8, phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 2**16), order=st.randoms(use_true_random=False))
def test_output_does_not_depend_on_percept_order(seed, order):
    noise = NoiseConfig(miss_rate=0.1, ghost_rate=0.1, jitter_sigma=1.0)
    frames = generate(build_template("random", seed, frames=100, noise=noise)).scenario.inputs
    shuffled = [
        replace(f, percepts=tuple(order.sample(f.percepts, len(f.percepts)))) for f in frames
    ]

    def run(stream):
        model, trace = WorldModel(), []
        for f in stream:
            model, outcomes = step(model, f, CONFIG)
            trace.append((outcomes, model))
        return trace

    assert run(shuffled) == run(frames)


@pytest.mark.parametrize("seed", range(4))
def test_a_track_id_never_changes_type_on_noisy_streams(seed):
    # Ghosts of every type appear next to real objects; none takes over a
    # track of another type.
    noise = NoiseConfig(miss_rate=0.1, ghost_rate=0.1, jitter_sigma=1.0)
    frames = generate(build_template("random", seed, noise=noise)).scenario.inputs
    engine = AnchoringEngine(CONFIG)
    kind_of: dict[str, str] = {}
    for f in frames:
        engine.step(f)
        for track in engine.model.anchors + engine.model.candidates:
            assert kind_of.setdefault(track.anchor_id, track.object_type) == track.object_type


def test_static_scene_under_pure_camera_motion_matches_at_zero_cost():
    rng = np.random.default_rng(11)
    world_points = [tuple(rng.uniform(50, 250, 2)) for _ in range(5)]
    pose_prev, pose_next = (12.0, -7.0), (31.0, 5.0)
    anchors = tuple(
        make_anchor(f"cube{i}", pos=(x - pose_prev[0], y - pose_prev[1]))
        for i, (x, y) in enumerate(world_points)
    )
    percepts = [
        make_percept(i, pos=(x - pose_next[0], y - pose_next[1]))
        for i, (x, y) in enumerate(world_points)
    ]
    model = WorldModel(frame_index=0, anchors=anchors, camera_pose=pose_prev)
    # Only a near-zero cost passes this tau once step has compensated the pan.
    config = EngineConfig(tau=1e-18)
    new_model, outcomes = step(model, frame(1, percepts, camera=pose_next), config)
    assert [(o.anchor_id, o.reason, o.new_position) for o in outcomes] == [
        (a.anchor_id, "matched", p.attributes.position) for a, p in zip(anchors, percepts)
    ]
    assert new_model.candidates == ()


def test_promoting_a_reserved_candidate_type_is_rejected():
    # A promoted "cand" object would be named like a provisional track.
    engine = AnchoringEngine(CONFIG)
    engine.step(frame(0, [make_percept(0, kind="cand")]))
    with pytest.raises(EngineError, match="reserved prefix"):
        engine.step(frame(1, [make_percept(0, kind="cand")]))


def test_contained_target_follows_its_carrier_while_undetected():
    engine = AnchoringEngine(CONFIG, check_invariants=True)
    cone = lambda pid, x: make_percept(pid, "cone", (x, 100.0), (40.0, 40.0))
    snitch = lambda pid: make_percept(pid, "snitch", (150.0, 150.0), (18.0, 18.0))
    engine.step(frame(0, [cone(0, 100.0), snitch(1)]))
    engine.step(frame(1, [cone(0, 100.0), snitch(1)]))  # both anchored now
    engine.step(
        frame(2, [cone(0, 100.0)], actions=[ActionEvent("contain", ("cone0", "snitch0"))])
    )
    for i, x in enumerate((120.0, 140.0, 150.0), start=3):
        engine.step(frame(i, [cone(0, x)]))
    estimate = by_id(engine.model.anchors)["snitch0"]
    assert estimate.status == ATTACHED
    assert estimate.attributes.position == (200.0, 150.0)  # moved 50 px with the cone


def test_redetection_of_attached_child_detaches_it():
    engine = AnchoringEngine(CONFIG, check_invariants=True)
    cone = make_percept(0, "cone", (100.0, 100.0), (40.0, 40.0))
    snitch = make_percept(1, "snitch", (104.0, 100.0), (18.0, 18.0))
    for t in range(2):
        engine.step(frame(t, [cone, snitch]))
    engine.step(frame(2, [cone], actions=[ActionEvent("contain", ("cone0", "snitch0"))]))
    assert by_id(engine.model.anchors)["snitch0"].status == ATTACHED
    engine.step(frame(3, [cone, snitch]))
    child = by_id(engine.model.anchors)["snitch0"]
    assert child.status == VISIBLE and child.parent is None


def test_pruned_parent_releases_children_in_place():
    config = EngineConfig(conf_dec=0.6)  # lost anchors die after one missed frame
    engine = AnchoringEngine(config, check_invariants=True)
    cone = make_percept(0, "cone", (100.0, 100.0), (40.0, 40.0))
    snitch = make_percept(1, "snitch", (290.0, 200.0), (18.0, 18.0))
    for t in range(2):
        engine.step(frame(t, [cone, snitch]))
    engine.step(frame(2, [cone], actions=[ActionEvent("contain", ("cone0", "snitch0"))]))
    assert by_id(engine.model.anchors)["snitch0"].parent == "cone0"
    # The cone now vanishes with nothing overlapping it: lost and, at 0.2 of
    # confidence against a 0.6 decrement, pruned in the same cycle.
    engine.step(frame(3, []))
    lookup = by_id(engine.model.anchors)
    assert "cone0" not in lookup
    child = lookup["snitch0"]
    assert child.parent is None
    assert child.attributes.position == (290.0, 200.0)  # released in place
    assert validate_world_model(engine.model) == []


def test_query_levels_filter_by_confidence():
    # One level is left: anchors at or above kappa_anch, whatever their status.
    config = EngineConfig(kappa_anch=0.5)
    model = WorldModel(anchors=(
        make_anchor("a0", conf=0.05, status=LOST),
        make_anchor("b0", conf=0.5),
        make_anchor("c0", conf=0.9),
        make_anchor("d0", conf=0.3),
    ))
    assert [a.anchor_id for a in query(model, config)] == ["b0", "c0"]


def test_query_equal_thresholds_and_empty_model():
    config = EngineConfig(kappa_anch=0.3)
    model = WorldModel(anchors=(make_anchor("a0", conf=0.3),))
    assert [a.anchor_id for a in query(model, config)] == ["a0"]
    assert query(WorldModel(), config) == []
    # The level argument went with the inference gate.
    with pytest.raises(TypeError):
        query(model, config, "everything")


def test_boundary_confidence_exactly_at_threshold_is_anchored():
    model = WorldModel(anchors=(make_anchor("a0", conf=CONFIG.kappa_anch),))
    assert [a.anchor_id for a in query(model, CONFIG)] == ["a0"]


def test_candidate_fallback_prediction_before_promotion():
    engine = AnchoringEngine(CONFIG)
    engine.step(frame(0, [make_percept(0, "snitch", (42.0, 24.0), (18.0, 18.0))]))
    predicted = engine.predict("snitch")
    assert predicted is not None
    assert predicted.attributes.position == (42.0, 24.0)
    assert engine.query() == []
    assert engine.predict("cube") is None


def test_ghost_below_anchoring_threshold_never_promotes_and_prunes_quickly():
    config = EngineConfig(conf_inc=0.05, conf_dec=0.1, kappa_anch=0.5)
    k = 3  # (k-1) * conf_inc = 0.1 < kappa_anch
    engine = AnchoringEngine(config, check_invariants=True)
    t = 0
    for _ in range(k):
        engine.step(frame(t, [make_percept(0, pos=(50.0, 50.0))]))
        t += 1
    assert engine.query() == []
    bound = math.ceil(k * config.conf_inc / config.conf_dec) + 1
    for _ in range(bound):
        engine.step(frame(t))
        t += 1
    assert engine.model.candidates == ()
    assert engine.model.next_instance == {}  # no typeN id was ever consumed


def test_anchor_ids_are_not_reused_after_pruning():
    config = EngineConfig(conf_dec=0.6)
    engine = AnchoringEngine(config, check_invariants=True)
    for t in range(2):
        engine.step(frame(t, [make_percept(0)]))
    assert "cube0" in by_id(engine.model.anchors)
    engine.step(frame(2, []))
    engine.step(frame(3, []))
    assert engine.model.anchors == ()
    # Same object seen again: it gets a fresh number, never cube0 again.
    for t in range(4, 6):
        engine.step(frame(t, [make_percept(0)]))
    assert [a.anchor_id for a in engine.model.anchors] == ["cube1"]


def test_maintained_statuses_hold_position_and_confidence_indefinitely():
    engine = AnchoringEngine(CONFIG, check_invariants=True)
    wall = make_percept(1, "cube", (125.0, 100.0), (40.0, 40.0))
    target = make_percept(0, "sphere", (100.0, 100.0))
    for t in range(5):
        engine.step(frame(t, [target, wall]))
    held_conf = by_id(engine.model.anchors)["sphere0"].confidence
    for t in range(5, 45):
        engine.step(frame(t, [wall]))  # target hidden behind the wall
        anchor = by_id(engine.model.anchors)["sphere0"]
        assert anchor.status == "occluded"
        assert anchor.attributes.position == (100.0, 100.0)
        assert anchor.confidence == held_conf


def test_deterministic_outputs_for_identical_streams():
    def run():
        engine = AnchoringEngine(CONFIG)
        trace = []
        for t in range(30):
            percepts = [
                make_percept(0, "cube", (100.0 + t, 100.0)),
                make_percept(1, "cone", (200.0, 120.0), (40.0, 40.0)),
            ]
            if t % 7 == 0:
                percepts = percepts[:1]
            engine.step(frame(t, percepts))
            trace.append(tuple(engine.query()))
        return trace

    assert run() == run()


def test_stream_performance_300_frames_10_objects():
    percept_rows = [
        [make_percept(i, "cube", (30.0 + 30 * i, 100.0 + (t % 3)), (20.0, 20.0))
         for i in range(10)]
        for t in range(300)
    ]
    engine = AnchoringEngine(CONFIG)
    started = time.perf_counter()
    for t, row in enumerate(percept_rows):
        engine.step(frame(t, row))
    elapsed = time.perf_counter() - started
    assert len(engine.query()) == 10
    assert elapsed < 1.0, f"300-frame stream took {elapsed:.3f}s"


def test_every_cycle_preserves_world_model_invariants():
    engine = AnchoringEngine(CONFIG, check_invariants=True)
    for t in range(20):
        percepts = [make_percept(0, "cone", (100.0, 100.0), (40.0, 40.0))]
        actions = []
        if t == 4:
            percepts.append(make_percept(1, "snitch", (103.0, 100.0), (18.0, 18.0)))
        if t == 5:
            percepts.append(make_percept(1, "snitch", (103.0, 100.0), (18.0, 18.0)))
        if t == 7:
            actions.append(ActionEvent("contain", ("cone0", "snitch0")))
        engine.step(frame(t, percepts, actions=actions))
        assert validate_world_model(engine.model) == []


# Contain and uncontain ids drawn from the scene's names (live anchors once
# anchored), ids of the same types that no anchor has, or that one had before
# pruning, and candidate ids, which actions can never name.
STRAY_IDS = ("cone0", "cone1", "cube0", "cylinder0", "snitch0", "sphere0",
             "cone2", "cube1", "cube3", "sphere4", "cand0", "cand1", "cand7")


@settings(max_examples=30, phases=(Phase.explicit, Phase.generate))
@given(
    seed=st.integers(0, 2**16),
    miss_rate=st.floats(0.0, 0.5),
    ghost_rate=st.floats(0.0, 0.5),
    jitter_sigma=st.floats(0.0, 3.0),
    burst=st.integers(1, 6),
    events=st.lists(
        st.tuples(st.integers(0, 199), st.sampled_from(("contain", "uncontain")),
                  st.sampled_from(STRAY_IDS), st.sampled_from(STRAY_IDS)),
        max_size=12,
    ),
)
def test_invariants_hold_under_noise_and_stray_actions(
    seed, miss_rate, ghost_rate, jitter_sigma, burst, events
):
    noise = NoiseConfig(miss_rate=miss_rate, ghost_rate=ghost_rate,
                        jitter_sigma=jitter_sigma, flicker_burst_length=burst)
    frames = list(generate(build_template("random", seed, frames=200, noise=noise)).scenario.inputs)
    for t, name, parent, child in events:
        extra = ActionEvent(name, (parent, child))
        frames[t] = replace(frames[t], actions=frames[t].actions + (extra,))
    run_engine_stream(frames, CONFIG, check_invariants=True)  # raises on a broken invariant


@st.composite
def shifted_streams(draw):
    """A small detection stream with integer boxes and contain/uncontain
    actions, plus one integer camera pose per frame. Each object jitters
    around its start by a few pixels and is detected in about half of the
    frames, so tracks match, get anchored, occlude one another, are lost,
    get attached (also below an attached parent) and are released."""
    extra = draw(st.lists(st.sampled_from(("cone", "cube", "snitch")), max_size=2))
    kinds = ["cone", "snitch", *extra]
    starts = [(draw(st.integers(1000, 1040)), draw(st.integers(1000, 1040))) for _ in kinds]
    sizes = [(float(draw(st.integers(4, 40))), float(draw(st.integers(4, 40)))) for _ in kinds]
    jitter = st.integers(-8, 8)
    pairs = (("cone0", "snitch0"), ("cone0", "snitch1"), ("cube0", "cone0"), ("snitch0", "cone0"))
    names = ("contain", "contain", "uncontain")  # a contain twice as often
    event = st.sampled_from([ActionEvent(n, p) for n in names for p in pairs])
    frames = []
    for t in range(draw(st.integers(2, 20))):
        percepts = tuple(
            Percept(i, Attributes(kind, (float(x + draw(jitter)), float(y + draw(jitter))), size))
            for i, (kind, (x, y), size) in enumerate(zip(kinds, starts, sizes))
            if draw(st.booleans())
        )
        frames.append(frame(t, percepts, actions=draw(st.lists(event, max_size=2))))
    pose = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(
        lambda xy: (float(xy[0]), float(xy[1]))
    )
    poses = draw(st.lists(pose, min_size=len(frames), max_size=len(frames)))
    return frames, poses


@settings(max_examples=100, phases=(Phase.explicit, Phase.generate))
@given(stream=shifted_streams())
def test_camera_translation_moves_every_estimate_by_exactly_its_shift(stream):
    # Every coordinate is a small integer or half of one, so each sum,
    # difference and product the engine forms is exact. The field of view
    # holds every position of both runs: no anchor is ever out of view.
    frames, poses = stream

    def shifted(record, pose):
        (x, y), (cx, cy) = record.attributes.position, pose
        return record._replace(attributes=record.attributes._replace(position=(x - cx, y - cy)))

    panned_frames = [
        replace(f, camera_pose=pose, percepts=tuple(shifted(p, pose) for p in f.percepts))
        for f, pose in zip(frames, poses)
    ]
    config = EngineConfig(field_of_view=(4096.0, 4096.0))
    still = run_engine_stream(frames, config)
    panned = run_engine_stream(panned_frames, config)
    for (_, fixed), (_, moved), pose in zip(still.world, panned.world, poses):
        # The same anchors with the same ids, statuses, confidences, parents
        # and offsets, each at exactly its still position minus the pose.
        assert moved == tuple(shifted(a, pose) for a in fixed)
    for fixed, moved, (cx, cy) in zip(still.predictions, panned.predictions, poses):
        if fixed is None:
            assert moved is None
        else:
            (x, y), size = fixed
            assert moved == ((x - cx, y - cy), size)


def test_a_child_released_by_its_pruned_parent_reports_the_released_track():
    # The child comes first, so its parent_follow outcome is written before
    # the parent is pruned; it must still describe the track the model holds.
    child = make_anchor("snitch0", "snitch", status=ATTACHED, parent="cone0", offset=(0.0, 0.0))
    parent = make_anchor("cone0", "cone", conf=0.05, status=LOST)
    model = WorldModel(frame_index=0, anchors=(child, parent))
    model, outcomes = step(model, frame(1), CONFIG, check_invariants=True)
    released = by_id(model.anchors)["snitch0"]
    assert (released.status, released.parent) == (LOST, None)
    assert [(o.anchor_id, o.reason) for o in outcomes] == [
        ("snitch0", "parent_follow"), ("cone0", "pruned")
    ]
    assert outcomes[0] == (
        "snitch0", LOST, released.confidence, released.attributes.position, "parent_follow"
    )


@settings(max_examples=100, phases=(Phase.explicit, Phase.generate))
@given(stream=shifted_streams())
def test_every_outcome_matches_the_track_the_successor_model_holds(stream):
    # Every position is in view and a lost anchor dies within three missed
    # frames, so parents are pruned under their attached children.
    frames, _ = stream
    config = EngineConfig(conf_dec=0.4, field_of_view=(4096.0, 4096.0))
    model = WorldModel()
    for f in frames:
        model, outcomes = step(model, f, config)
        held = by_id(model.anchors + model.candidates)
        for outcome in outcomes:
            track = held.get(outcome.anchor_id)
            if track is not None:
                assert outcome[1:4] == (track.status, track.confidence, track.attributes.position)
