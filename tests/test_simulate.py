from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import _crowd_scenario

from anchorkit import simulate
from anchorkit.core import Attributes, EngineConfig, EngineError, Percept, box_corners
from anchorkit.pipeline import run_engine_stream
from anchorkit.simulate import (
    EventSpec,
    NoiseConfig,
    ObjectSpec,
    ScenarioConfig,
    SimulationError,
    build_template,
    corrupt,
    generate,
    h1_violations,
    scenario_config_from_json,
)


def small_static(seed=0, frames=30, noise=NoiseConfig()):
    return generate(build_template("static", seed=seed, frames=frames, n_objects=4, noise=noise))


class TestDeterminism:
    def test_same_seed_gives_identical_records(self):
        assert generate(build_template("mixed", 5)) == generate(build_template("mixed", 5))
        assert small_static(3) == small_static(3)

    def test_different_seeds_differ(self):
        assert small_static(1) != small_static(2)


class TestNoiselessSemantics:
    def test_static_scene_all_visible_and_detections_equal_truth(self):
        record = small_static()
        assert set(record.scenario.labels) == {"visible"}
        for f in range(record.frames):
            percepts = record.scenario.inputs[f].percepts
            detected = {p.attributes.object_type: p for p in percepts}
            assert len(percepts) == len(record.objects)
            for spec in record.objects:
                percept = detected[spec.object_type] if spec.object_type in detected else None
                by_name = [
                    p for p in percepts
                    if p.attributes.position == record.image_position(f, spec.name)
                ]
                assert by_name, f"{spec.name} missing at frame {f}"

    def test_contain_script_produces_carried_labels(self):
        objects = (
            ObjectSpec("cone0", "cone", (40.0, 40.0), (60.0, 120.0)),
            ObjectSpec("snitch0", "snitch", (18.0, 18.0), (180.0, 120.0)),
        )
        script = (
            EventSpec("contain", "cone0", 10, 40, target="snitch0"),
            EventSpec("slide", "cone0", 50, 90, dest=(180.0, 60.0)),
        )
        record = generate(ScenarioConfig(seed=1, frames=120, objects=objects, script=script))
        labels = record.scenario.labels
        actions = [a for frame in record.scenario.inputs for a in frame.actions]
        assert labels[60] == "carried"
        assert "contained" in labels
        assert actions[0].name == "contain"
        first = next(frame for frame in record.scenario.inputs if frame.actions)
        assert first.frame_index == 41
        # carried frames are exactly the contained frames where the target moved
        for f in range(1, 120):
            moved = record.truth[f]["snitch0"] != record.truth[f - 1]["snitch0"]
            contained = any(
                c == "snitch0" and s <= f < e for c, _p, s, e in record.attachments
            )
            expect = (
                "carried" if contained and moved
                else "contained" if contained
                else labels[f]
            )
            assert labels[f] == expect

    def test_label_rule_rederivable_from_geometry_and_events(self):
        record = generate(build_template("mixed", 9))
        spec = {o.name: o for o in record.objects}
        q = 0.5
        snitch = record.target_name()
        for f in range(record.frames):
            contained = any(
                c == snitch and s <= f < e for c, _p, s, e in record.attachments
            )
            moved = f > 0 and record.truth[f][snitch] != record.truth[f - 1][snitch]
            if contained:
                want = "carried" if moved else "contained"
            elif snitch not in record.visibility[f]:
                want = "occluded"
            else:
                want = "visible"
            assert record.scenario.labels[f] == want, f"frame {f}"

    def test_containment_implies_inside_container_footprint(self):
        record = generate(build_template("mixed", 2))
        snitch = record.target_name()
        for child, parent, start, end in record.attachments:
            if child != snitch:
                continue
            spec = next(o for o in record.objects if o.name == parent)
            half_w, half_h = spec.size[0] / 2, spec.size[1] / 2
            for f in range(start, min(end, record.frames)):
                cx, cy = record.truth[f][child]
                px, py = record.truth[f][parent]
                assert abs(cx - px) <= half_w and abs(cy - py) <= half_h

    def test_depth_three_chain_present_in_mixed_template(self):
        record = generate(build_template("mixed", 0))
        by_child = {c: (p, s, e) for c, p, s, e in record.attachments}
        snitch = record.target_name()
        parent, s0, e0 = by_child[snitch]
        grand, s1, e1 = by_child[parent][0], by_child[parent][1], by_child[parent][2]
        assert grand != snitch
        assert max(s0, s1) < min(e0, e1), "chain intervals must overlap"


class TestTemplatesAreCompliant:
    @pytest.mark.parametrize("template", ["static", "camera", "mixed", "carried"])
    def test_no_unobserved_motion(self, template):
        for seed in (0, 17):
            record = generate(build_template(template, seed))
            assert h1_violations(record) == []

    def test_random_template_is_compliant_and_deterministic(self):
        record = generate(build_template("random", 23))
        assert h1_violations(record) == []
        assert record == generate(build_template("random", 23))

    def test_random_script_without_a_cone_contains_nothing(self):
        objects = (
            ObjectSpec("cube0", "cube", (30.0, 30.0), (80.0, 120.0)),
            ObjectSpec("snitch0", "snitch", (18.0, 18.0), (260.0, 120.0)),
        )
        config = ScenarioConfig(seed=4, objects=objects)
        record = generate(config)
        actions = {a.name for frame in record.scenario.inputs for a in frame.actions}
        assert not actions & {"contain", "uncontain"}
        assert h1_violations(record) == []
        assert record == generate(config)

    def test_tampered_record_fails_h1_check(self):
        record = small_static()
        truth = [dict(frame) for frame in record.truth]
        name = record.objects[0].name
        truth[10][name] = (truth[10][name][0] + 25.0, truth[10][name][1])
        visibility = [set(v) for v in record.visibility]
        visibility[9].discard(name)
        visibility[10].discard(name)
        tampered = dataclasses.replace(
            record,
            truth=tuple(truth),
            visibility=tuple(frozenset(v) for v in visibility),
        )
        assert any(name in v for v in h1_violations(tampered))


class TestScriptValidation:
    def base_objects(self):
        return (
            ObjectSpec("cone0", "cone", (40.0, 40.0), (60.0, 120.0)),
            ObjectSpec("cube0", "cube", (30.0, 30.0), (300.0, 120.0)),
            ObjectSpec("snitch0", "snitch", (18.0, 18.0), (180.0, 120.0)),
        )

    def test_contain_with_absent_target_rejected_with_event_index(self):
        script = (EventSpec("contain", "cone0", 10, 40, target="ball9"),)
        with pytest.raises(SimulationError, match="event 0"):
            generate(ScenarioConfig(seed=0, frames=100, objects=self.base_objects(), script=script))

    def test_container_must_cover_target(self):
        script = (EventSpec("contain", "cube0", 10, 40, target="cone0"),)
        with pytest.raises(SimulationError, match="cover"):
            generate(ScenarioConfig(seed=0, frames=100, objects=self.base_objects(), script=script))

    def test_overlapping_motion_windows_rejected(self):
        script = (
            EventSpec("slide", "cone0", 10, 40, dest=(100.0, 60.0)),
            EventSpec("slide", "cube0", 30, 60, dest=(250.0, 60.0)),
        )
        with pytest.raises(SimulationError, match="one mover at a time"):
            generate(ScenarioConfig(seed=0, frames=100, objects=self.base_objects(), script=script))

    def test_uncontain_without_containment_rejected(self):
        script = (EventSpec("uncontain", "cone0", 10, 30, target="snitch0", dest=(60.0, 60.0)),)
        with pytest.raises(SimulationError, match="matching containment"):
            generate(ScenarioConfig(seed=0, frames=100, objects=self.base_objects(), script=script))

    def test_two_snitches_rejected(self):
        objects = self.base_objects() + (
            ObjectSpec("snitch1", "snitch", (18.0, 18.0), (220.0, 60.0)),
        )
        with pytest.raises(SimulationError, match="exactly one snitch"):
            generate(ScenarioConfig(seed=0, frames=50, objects=objects, script=()))

    def test_target_leaving_viewport_rejected(self):
        objects = (
            ObjectSpec("snitch0", "snitch", (18.0, 18.0), (30.0, 120.0)),
            ObjectSpec("cube0", "cube", (30.0, 30.0), (300.0, 120.0)),
        )
        script = (EventSpec("slide", "snitch0", 5, 25, dest=(-40.0, 120.0)),)
        with pytest.raises(SimulationError):
            generate(ScenarioConfig(seed=0, frames=60, objects=objects, script=script))

    @pytest.mark.parametrize(
        "script, message",
        [
            ((EventSpec("jump", "cone0", 10, 20),), "event 0: unknown kind 'jump'"),
            ((EventSpec("rotate", "ball9", 10, 20),), "event 0: unknown subject 'ball9'"),
            ((EventSpec("rotate", "cone0", 10, 100),), r"event 0: window \[10, 100\] out of range"),
            ((EventSpec("rotate", "cone0", 20, 10),), r"event 0: window \[20, 10\] out of range"),
            ((EventSpec("slide", "cone0", 10, 20),), "event 0: slide requires a destination"),
            ((EventSpec("pick_place", "cone0", 10, 20),),
             "event 0: pick_place requires a destination"),
            ((EventSpec("uncontain", "cone0", 10, 20, target="snitch0"),),
             "event 0: uncontain requires a destination"),
            ((EventSpec("contain", "cone0", 10, 20, target="cone0"),),
             "event 0: subject cannot contain itself"),
            ((EventSpec("contain", "cone0", 10, 99, target="snitch0"),),
             "event 0: contain must finish before the last frame"),
            # Rejected while the script runs.
            ((EventSpec("contain", "cone0", 10, 20, target="snitch0"),
              EventSpec("contain", "cube0", 30, 40, target="snitch0")),
             "event 1: contain target 'snitch0' is already attached"),
            ((EventSpec("contain", "cone0", 10, 20, target="snitch0"),
              EventSpec("uncontain", "cube0", 30, 40, target="snitch0", dest=(300.0, 60.0))),
             "event 1: uncontain without a matching containment of 'snitch0'"),
            ((EventSpec("contain", "cone0", 10, 20, target="snitch0"),
              EventSpec("slide", "snitch0", 30, 40, dest=(180.0, 60.0))),
             "event 1: subject 'snitch0' cannot move while attached"),
            # The second approach carries its own target along with it.
            ((EventSpec("contain", "cone0", 10, 20, target="snitch0"),
              EventSpec("contain", "cone0", 30, 40, target="snitch0", offset=(5.0, 0.0))),
             "event 1: contain target 'snitch0' moved during the approach"),
        ],
    )
    def test_rejected_scripts_name_the_event(self, script, message):
        config = ScenarioConfig(seed=0, frames=100, objects=self.base_objects(), script=script)
        with pytest.raises(SimulationError, match=message):
            generate(config)

    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, script=(),
                objects=objects + (ObjectSpec("cone0", "cube", (30.0, 30.0), (300.0, 60.0)),))),
                "object names must be unique", id="duplicate-names"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, script=(),
                objects=objects + (ObjectSpec("cube1", "cube", (30.0, 0.0), (300.0, 60.0)),))),
                "object 'cube1' has non-positive size", id="zero-size"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, script=(),
                objects=objects + (ObjectSpec("cube1", "cube", (np.nan, 30.0), (300.0, 60.0)),))),
                "object 'cube1' has a non-finite size or start", id="nan-size"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, script=(),
                objects=objects + (ObjectSpec("cube1", "cube", (30.0, 30.0), (np.inf, 60.0)),))),
                "object 'cube1' has a non-finite size or start", id="infinite-start"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, script=(),
                objects=objects + (ObjectSpec("cube1", "candle", (30.0, 30.0), (300.0, 60.0)),))),
                "object 'cube1' type 'candle' uses the reserved prefix 'cand'",
                id="reserved-type-prefix"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, objects=objects,
                script=(EventSpec("slide", "cone0", 10, 20, dest=(np.nan, 60.0)),))),
                r"event 0: dest must be finite, got \(nan, 60.0\)", id="nan-dest"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, objects=objects,
                script=(EventSpec("contain", "cone0", 10, 20, target="snitch0",
                                  offset=(0.0, -np.inf)),))),
                r"event 0: offset must be finite, got \(0.0, -inf\)", id="infinite-offset"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, objects=objects, script=(), viewport=(360.0, np.inf))),
                r"viewport must be finite, got \(360.0, inf\)", id="infinite-viewport"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, objects=objects, script=(),
                camera=((0, (0.0, 0.0)), (20, (np.nan, 0.0))))),
                r"camera waypoint 1: pose must be finite, got \(nan, 0.0\)", id="nan-waypoint"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=100, objects=objects, script=(),
                camera=((0, (0.0, 0.0)), (50, (40.0, 0.0)), (20, (0.0, 0.0))))),
                "camera waypoint 2: frame 20 must come after 50", id="waypoints-out-of-order"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=100, objects=objects, script=(),
                camera=((0, (0.0, 0.0)), (0, (40.0, 0.0))))),
                "camera waypoint 1: frame 0 must come after 0", id="repeated-waypoint-frame"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, objects=objects, script=(), camera=())),
                "camera needs at least one waypoint", id="no-waypoints"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, objects=objects, script=(),
                noise=NoiseConfig(jitter_sigma=-1.0))),
                "jitter_sigma must be >= 0", id="negative-jitter"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, objects=objects, script=(),
                noise=NoiseConfig(jitter_sigma=np.inf))),
                "jitter_sigma must be >= 0 and finite, got inf", id="infinite-jitter"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, objects=objects, script=(),
                noise=NoiseConfig(jitter_sigma=np.nan))),
                "jitter_sigma must be >= 0 and finite, got nan", id="nan-jitter"),
            pytest.param(lambda objects: corrupt(
                [[]], NoiseConfig(ghost_rate=0.5, ghost_clearance=np.nan), seed=0),
                "ghost_clearance must be finite, got nan", id="nan-ghost-clearance"),
            pytest.param(lambda objects: generate(build_template(
                "carried", 1, noise=NoiseConfig(miss_rate=0.2, flicker_burst_length=np.nan))),
                "flicker_burst_length must be an integer >= 1, got nan", id="nan-burst"),
            pytest.param(lambda objects: generate(build_template(
                "carried", 1, noise=NoiseConfig(miss_rate=0.2, flicker_burst_length=2.5))),
                "flicker_burst_length must be an integer >= 1, got 2.5", id="fractional-burst"),
            pytest.param(lambda objects: generate(build_template(
                "carried", 1, noise=NoiseConfig(miss_rate=0.2, flicker_burst_length=2**63))),
                r"flicker_burst_length must be below 2\*\*63, got 9223372036854775808",
                id="burst-beyond-int64"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=50, objects=objects, script=(), viewport=(0.0, 0.0))),
                r"viewport must be positive, got \(0.0, 0.0\)", id="empty-viewport"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=1, frames=60, viewport=(100.0, 100.0))),
                r"the random layout does not fit in viewport \(100.0, 100.0\)",
                id="random-layout-too-large"),
            pytest.param(lambda objects: corrupt(
                [[]], NoiseConfig(ghost_rate=0.5), seed=0, viewport=(30.0, 30.0)),
                r"ghosts need a viewport of at least 40 x 40, got \(30.0, 30.0\)",
                id="no-room-for-ghosts"),
            pytest.param(lambda objects: generate(ScenarioConfig(
                seed=0, frames=1, objects=objects, script=())),
                "need at least two frames", id="one-frame"),
            pytest.param(lambda objects: build_template("camera", 1, frames=259),
                         "camera template needs at least 260 frames", id="short-camera"),
            pytest.param(lambda objects: build_template("mixed", 1, frames=299),
                         "mixed template needs at least 300 frames", id="short-mixed"),
            pytest.param(lambda objects: build_template("carried", 1, frames=219),
                         "carried template needs at least 220 frames", id="short-carried"),
            pytest.param(lambda objects: build_template("orbit", 1),
                         "unknown template 'orbit'", id="unknown-template"),
            pytest.param(lambda objects: scenario_config_from_json([1, 2]),
                         "scenario config must be a JSON object", id="config-not-an-object"),
        ],
    )
    def test_rejected_setups(self, make, message):
        with pytest.raises(EngineError, match=message):
            make(self.base_objects())

    @pytest.mark.parametrize("template", ["mixed", "carried", "random"])
    def test_object_count_is_rejected_outside_the_grid_templates(self, template):
        with pytest.raises(SimulationError, match=f"the {template} template takes no object count"):
            build_template(template, 1, n_objects=3)

    @pytest.mark.parametrize(
        "template, seed, frames, n_objects, message",
        [
            ("mixed", -1, None, 3, "the mixed template takes no object count"),
            ("camera", -1, None, 9, "seed must be >= 0"),
            ("camera", 1, 10, 9, r"camera template supports 2\.\.8 objects"),
        ],
        ids=["object-count-before-seed", "seed-before-object-range", "object-range-before-frames"],
    )
    def test_build_template_checks_in_order(self, template, seed, frames, n_objects, message):
        with pytest.raises(EngineError, match=message):
            build_template(template, seed, frames=frames, n_objects=n_objects)


class TestCorrupt:
    def frames_of(self, record):
        """Every object of ``record`` in every frame, as ``corrupt`` takes them."""
        return [
            [
                (spec.name, Attributes(spec.object_type,
                                       record.image_position(f, spec.name), spec.size))
                for spec in record.objects
            ]
            for f in range(record.frames)
        ]

    @staticmethod
    def percepts(frame):
        """``frame``'s detections as ``corrupt`` returns them without noise."""
        return tuple(Percept(i, attributes) for i, (_name, attributes) in enumerate(frame))

    def test_zero_noise_is_identity(self):
        record = small_static()
        frames = self.frames_of(record)
        assert corrupt(frames, NoiseConfig(), seed=1) == tuple(map(self.percepts, frames))

    def test_full_miss_rate_empties_every_frame(self):
        record = small_static()
        frames = self.frames_of(record)
        out = corrupt(frames, NoiseConfig(miss_rate=1.0), seed=1)
        assert len(out) == len(frames)
        assert all(frame == () for frame in out)

    def test_deterministic_in_seed(self):
        record = small_static()
        frames = self.frames_of(record)
        noise = NoiseConfig(miss_rate=0.1, ghost_rate=0.2, jitter_sigma=1.0,
                            flicker_burst_length=3)
        assert corrupt(frames, noise, seed=5) == corrupt(frames, noise, seed=5)
        assert corrupt(frames, noise, seed=5) != corrupt(frames, noise, seed=6)

    def test_ghosts_respect_clearance(self):
        record = small_static(frames=120)
        frames = self.frames_of(record)
        noise = NoiseConfig(ghost_rate=0.5, flicker_burst_length=2, ghost_clearance=60.0)
        out = corrupt(frames, noise, seed=2)
        truth_positions = [a.position for frame in frames for _name, a in frame]
        # Nothing is missed, so each frame's ghosts follow its real detections.
        assert all(noisy[:len(clean)] == self.percepts(clean) for clean, noisy in zip(frames, out))
        ghosts = [p.attributes for clean, noisy in zip(frames, out) for p in noisy[len(clean):]]
        assert ghosts, "expected some ghosts at rate 0.5"
        for ghost in ghosts:
            for pos in truth_positions:
                dx = ghost.position[0] - pos[0]
                dy = ghost.position[1] - pos[1]
                assert dx * dx + dy * dy >= 59.0**2

    def test_jitter_only_perturbs_positions(self):
        record = small_static()
        frames = self.frames_of(record)
        out = corrupt(frames, NoiseConfig(jitter_sigma=2.0), seed=3)
        for clean_frame, noisy_frame in zip(frames, out):
            assert [p.percept_id for p in noisy_frame] == list(range(len(clean_frame)))
            assert [(a.object_type, a.size) for _name, a in clean_frame] == [
                (p.attributes.object_type, p.attributes.size) for p in noisy_frame
            ]
        assert [p.attributes.position for frame in out for p in frame] != [
            a.position for frame in frames for _name, a in frame
        ]

    def test_extreme_bursts_and_viewports_still_draw(self):
        cube = [("cube0", Attributes("cube", (10.0, 10.0), (10.0, 10.0)))]
        huge = NoiseConfig(miss_rate=1.0, flicker_burst_length=2**63 - 1)
        assert corrupt([cube] * 3, huge, seed=0) == ((), (), ())
        # Ghost centers keep 20 px from each edge: a 40 x 40 view has one spot.
        out = corrupt([[]] * 3, NoiseConfig(ghost_rate=1.0), seed=0, viewport=(40.0, 40.0))
        assert {p.attributes.position for frame in out for p in frame} == {(20.0, 20.0)}

    def test_invalid_rates_rejected(self):
        with pytest.raises(SimulationError):
            corrupt([], NoiseConfig(miss_rate=1.5), seed=0)
        with pytest.raises(SimulationError):
            corrupt([], NoiseConfig(flicker_burst_length=0), seed=0)


class TestCameraOracle:
    def test_static_object_under_viewport_translation(self):
        # The projected center of a static object shifts opposite to the
        # camera, confirming the compensation arithmetic on simulator output.
        objects = (
            ObjectSpec("cube0", "cube", (30.0, 30.0), (100.0, 100.0)),
            ObjectSpec("snitch0", "snitch", (18.0, 18.0), (200.0, 120.0)),
        )
        camera = ((0, (0.0, 0.0)), (10, (0.0, 0.0)), (20, (10.0, 0.0)))
        record = generate(ScenarioConfig(seed=0, frames=30, objects=objects,
                                         script=(), camera=camera))
        assert record.image_position(10, "cube0") == (100.0, 100.0)
        assert record.image_position(20, "cube0") == (90.0, 100.0)

        camera = ((0, (0.0, 0.0)), (10, (-5.0, 3.0)))
        objects = (
            ObjectSpec("cube0", "cube", (30.0, 30.0), (50.0, 50.0)),
            ObjectSpec("snitch0", "snitch", (18.0, 18.0), (200.0, 120.0)),
        )
        record = generate(ScenarioConfig(seed=0, frames=20, objects=objects,
                                         script=(), camera=camera))
        assert record.image_position(10, "cube0") == (55.0, 47.0)

    def test_integer_waypoints_interpolate_exactly(self):
        record = generate(build_template("camera", 1))
        for f in range(50, 150):
            assert record.scenario.inputs[f].camera_pose == (float(f - 50), 0.0)


class TestTrackingOnTemplates:
    def test_noiseless_tracking_is_exact_after_anchoring(self):
        record = generate(build_template("mixed", 13))
        engine_config = EngineConfig()
        run = run_engine_stream(record.scenario.inputs, engine_config, check_invariants=True)
        snitch = record.target_name()
        for f, (pos, _size) in enumerate(b for b in run.predictions):
            truth = record.image_position(f, snitch)
            assert abs(pos[0] - truth[0]) <= 1e-9
            assert abs(pos[1] - truth[1]) <= 1e-9


def record_digest(record) -> str:
    """sha256 of a canonical JSON dump of what ``generate`` produced.
    Visibility is sorted: a frozenset's iteration order depends on
    ``PYTHONHASHSEED``."""
    payload = {
        "labels": record.scenario.labels,
        "visibility": [sorted(names) for names in record.visibility],
        "detections": [
            [
                [p.percept_id, p.attributes.object_type, p.attributes.position,
                 p.attributes.size, p.detector_score]
                for p in frame.percepts
            ]
            for frame in record.scenario.inputs
        ],
        "actions": [
            [a.name, a.arguments, frame.frame_index]
            for frame in record.scenario.inputs
            for a in frame.actions
        ],
        "attachments": record.attachments,
        "truth": [sorted(positions.items()) for positions in record.truth],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


NOISY = NoiseConfig(miss_rate=0.1, ghost_rate=0.1, jitter_sigma=1.0, flicker_burst_length=3)

# Seed 1 of each template, clean and noisy (seed 1 of mixed, carried and
# random labels frames with all four labels), the 48-object panning scene
# of the golden tests, which has a contain, a carry and a release, and a
# random script on given objects.
RECORD_DIGESTS = {
    "static-clean": "e101384977ba320dffdea39f55ceb461f3d4c7431dc8784fafcdbb90cd87d6c2",
    "static-noisy": "a752ed5ecda3ab9e121b0fede0832a19226640a752f1f7c84e8db2811eca1d19",
    "camera-clean": "8b58d995131770c1667f5df1c85c8e20ee8c8775cadc8c056140b5a891d98c64",
    "camera-noisy": "22e52af4d0c51ac85721efe0cf857510cf40fa1d39a3df59f617177e7da00067",
    "mixed-clean": "ac93b745cbb17c4a68f5d072207692bd6eb8983929e462b77f10e206364ccd52",
    "mixed-noisy": "9bd1d692516ff9a0caa9e04d09e13bb0c4239b2a03c2f3a53b911556a833bd02",
    "carried-clean": "0036a96dac7a2169efe062785b1065e47295f69eb4acb08eb93e22072c538b56",
    "carried-noisy": "1d44401d2110dceb76e2a80e417bfda981bc08174d7ded23487a42caedd7c5f1",
    "random-clean": "d8af8058e7f78321def552b4b418c057c87614e731d26aae3f25b7a91f056fbc",
    "random-noisy": "2d37bc6a0d2e662b704a40a30a63cb9e35ef9dc02a567e981373952c70836278",
    "crowd": "b02b57a3c11962a366b3a92182a56b00c1ab2f5eb800e183355f6314e78e9cc7",
    "given-objects": "6755a2ed28e96205fd8b67bec7a2895c12ed528f0d9d9202ce564ebf5df65444",
}


@pytest.mark.parametrize("case", sorted(RECORD_DIGESTS))
def test_generated_records_are_pinned(case):
    if case == "crowd":
        config = scenario_config_from_json(_crowd_scenario(0))
    elif case == "given-objects":
        # The mixed scene's objects with no script: the random script is then
        # drawn on objects that the random layout did not place.
        config = dataclasses.replace(build_template("mixed", 1), script=None)
    else:
        template, noise = case.split("-")
        config = build_template(template, 1, noise=NOISY if noise == "noisy" else NoiseConfig())
    assert record_digest(generate(config)) == RECORD_DIGESTS[case]


def reference_flags(centers, sizes, layers, camera, viewport):
    """The per-frame double loop that ``simulate._render_flags`` replaced,
    on Python floats: (covered, in_view) per frame and object."""
    width, height = viewport
    covered, in_view = [], []
    for positions, layer, (cx, cy) in zip(centers, layers, camera):
        covered.append([])
        in_view.append([])
        for i, own_pos in enumerate(positions):
            ax1, ay1, ax2, ay2 = box_corners((own_pos, sizes[i]))
            own_area = sizes[i][0] * sizes[i][1]
            cover = 0.0
            for j, other_pos in enumerate(positions):
                if layer[j] <= layer[i]:  # also skips object i itself
                    continue
                bx1, by1, bx2, by2 = box_corners((other_pos, sizes[j]))
                ox = min(ax2, bx2) - max(ax1, bx1)
                oy = min(ay2, by2) - max(ay1, by1)
                if ox > 0.0 and oy > 0.0:
                    cover = max(cover, ox * oy / own_area)
            covered[-1].append(cover > simulate.COVER_DROP_FRACTION)
            image = (own_pos[0] - cx, own_pos[1] - cy)
            in_view[-1].append(0.0 <= image[0] < width and 0.0 <= image[1] < height)
    return covered, in_view


def assert_flags_match_reference(centers, sizes, layers, camera, viewport):
    covered, in_view = simulate._render_flags(
        np.array(centers, dtype=float).reshape(len(layers), len(sizes), 2),
        np.array(sizes, dtype=float).reshape(len(sizes), 2),
        np.array(layers, dtype=float),
        np.array(camera, dtype=float),
        viewport,
    )
    assert (covered.tolist(), in_view.tolist()) == reference_flags(
        centers, sizes, layers, camera, viewport
    )


# Coordinate regimes: a 10 px grid, where edges touch and image positions
# land on the viewport's edges; free values; and huge values, where small
# boxes' corners round together.
_COORDINATES = {
    "grid": st.integers(-5, 40).map(lambda k: k * 10.0),
    "free": st.floats(-500.0, 500.0),
    "far": st.integers(-4, 4).map(lambda k: 1e15 + k * 0.125),
}
_SIZES = st.sampled_from((1e-3, 10.0, 20.0, 40.0)) | st.floats(1e-3, 100.0)
_LAYERS = st.sampled_from((0.0, 1.0, 2.0, 10001.0))


@st.composite
def layouts(draw):
    coordinate = _COORDINATES[draw(st.sampled_from(sorted(_COORDINATES)))]
    n = draw(st.integers(1, 6))
    frames = draw(st.integers(1, 3))
    sizes = [(draw(_SIZES), draw(_SIZES)) for _ in range(n)]
    centers = [[(draw(coordinate), draw(coordinate)) for _ in range(n)] for _ in range(frames)]
    layers = [[draw(_LAYERS) for _ in range(n)] for _ in range(frames)]
    camera = [(draw(coordinate), draw(coordinate)) for _ in range(frames)]
    return centers, sizes, layers, camera, (360.0, 240.0)


def one_frame(centers, sizes, layers, camera=(0.0, 0.0)):
    return [centers], sizes, [layers], [camera], (360.0, 240.0)


class TestRenderFlags:
    """The array cover and view tests against the loop they replaced."""

    @settings(max_examples=300)
    @given(layout=layouts())
    # Equal layers never cover each other.
    @example(layout=one_frame([(50.0, 50.0), (50.0, 50.0)], [(20.0, 20.0)] * 2, [1.0, 1.0]))
    # Touching edges: an overlap of exactly 0.
    @example(layout=one_frame([(50.0, 50.0), (70.0, 50.0)], [(20.0, 20.0)] * 2, [0.0, 1.0]))
    # A 20 x 20 box exactly half under a wider one is not covered.
    @example(layout=one_frame([(50.0, 50.0), (70.0, 50.0)], [(20.0, 20.0), (40.0, 40.0)],
                              [0.0, 1.0]))
    # Two negative overlaps have a positive product.
    @example(layout=one_frame([(50.0, 50.0), (150.0, 150.0)], [(1.0, 1.0)] * 2, [0.0, 1.0]))
    # Image positions on each edge of the viewport: [0, 360) x [0, 240).
    @example(layout=one_frame([(0.0, 0.0), (360.0, 100.0), (100.0, 240.0), (359.5, 239.5)],
                              [(10.0, 10.0)] * 4, [0.0] * 4))
    # Small boxes far from the origin, and image positions off the viewport.
    @example(layout=one_frame([(1e15, 1e15), (1e15 + 0.125, 1e15)], [(1e-3, 1e-3)] * 2,
                              [0.0, 1.0], camera=(1e15, 1e15 - 240.0)))
    def test_agrees_with_the_per_frame_loop(self, layout):
        assert_flags_match_reference(*layout)

    def test_agrees_across_blocks(self):
        n, frames = 48, 460
        assert simulate._COVER_BLOCK_CELLS // (n * n) < frames  # more than one block
        rng = np.random.default_rng(0)
        centers = np.round(rng.uniform(0.0, 200.0, (frames, n, 2)), 1).tolist()
        sizes = rng.choice([10.0, 20.0, 30.0, 40.0], (n, 2)).tolist()
        layers = rng.integers(0, 4, (frames, n)).astype(float).tolist()
        camera = rng.uniform(-20.0, 20.0, (frames, 2)).tolist()
        assert_flags_match_reference(centers, sizes, layers, camera, (180.0, 180.0))
