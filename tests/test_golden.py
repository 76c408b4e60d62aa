"""Golden streams: the engine's outputs on fixed simulated scenarios, pinned by hash.

World and prediction streams are written with the package's own writers, so
any change to a track's id, position, size, confidence, status or parent, or
to the target prediction, changes a hash. The per-frame outcome tuples pin
the reason the engine gave for every track. A refactor of the engine must
leave all three byte-identical; a deliberate change of behaviour updates the
hashes and says why.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from anchorkit.io_jsonl import load_engine_config, write_predictions, write_world_stream
from anchorkit.simulate import NoiseConfig, build_template, generate, scenario_config_from_json
from anchorkit.tracker import AnchoringEngine

NOISY = NoiseConfig(miss_rate=0.1, ghost_rate=0.1, jitter_sigma=1.0)

# (preset, template, seed, noise): noiseless mixed and carried scenes plus
# noisy random ones under the default preset, and a panning camera under the
# slow-anchoring preset.
CASES = [
    ("benchmark", "mixed", 0, NoiseConfig()),
    ("benchmark", "mixed", 1, NoiseConfig()),
    ("benchmark", "carried", 0, NoiseConfig()),
    ("benchmark", "carried", 1, NoiseConfig()),
    ("benchmark", "random", 0, NOISY),
    ("benchmark", "random", 1, NOISY),
    ("assembly", "camera", 0, NoiseConfig()),
]

# sha256 of the world stream, the predictions stream and the outcome tuples.
GOLDEN = {
    ("benchmark", "mixed", 0): (
        "813ce6643827524e8eda37b7d92255b3a3b0998f09bd1b2befbc4768797c95f0",
        "6b4a84b439fb7eabeee350e2d654f5fb5bf224bd4162beac4a43a913a9cbfcbe",
        "950808d93473446190a765534a7e044f01e7eae8345a3f389b01b2a0a3921263",
    ),
    ("benchmark", "mixed", 1): (
        "776e4fa4ce1076bbec357d4a865915a0db8b23ce0b6161cfc16ae39457ec8551",
        "3fa02acbbbe1770cc883382489229acd445efd01363abb5bfba01412ab63edf3",
        "f2dc7b60cec4dfe35ec519abaeecfe43f4bb7de9a4556fe30eae576cf0c40614",
    ),
    ("benchmark", "carried", 0): (
        "e2d6c432f39ad30a74db8fa229ad6a4018aeb3971ec344c47b5b9ec852f0b2a1",
        "a9e1b8b0ff93a5d6609ab81759cb275e98aa6b7a806651e71a749ae7d1a4ef6e",
        "824d6d31341aaaf2ff535cfccf12b2b74305d707c92af3339834f2d10c64b3d1",
    ),
    ("benchmark", "carried", 1): (
        "4801ab892ada11e36b4f5b94907187de600a61a04b49f4c147b3c7986985e526",
        "9b3d3f2106517f5e14e51aa7220228f453372c434b473596a9064f77a1edeafd",
        "b6ffc6a27218a31ae47ae0e402358c6ecaa47bfb67b2d85cce3c5b16514a5f01",
    ),
    ("benchmark", "random", 0): (
        "e8f5997556a8f820a2dd3b3a6b7951c217cf8af55307bcaa498e22888eff788a",
        "4dd5adc7c261fbf18d2be39211bd371f22fe03ea11fd711adf91629977008ea4",
        "8df67c9bd6b3ed19cf14d22839d7f874e4bab5c1ad521f727ed2f25513ed617e",
    ),
    # Ghosts of other types appear next to the snitch at frames 114, 155 and
    # 158; none of them takes over its anchor.
    ("benchmark", "random", 1): (
        "aa3a7ab4519c81fcba4ba540a125e7021f596b4598bffe4322ef2485823648c1",
        "77907e0acda481a8bdd62ec061663ba113597220f231480773c80bad8fb2e65b",
        "5d0042fd202e0d06aa34e1d8cd11654f486664b3d821dc3b25a6d001e14286df",
    ),
    ("assembly", "camera", 0): (
        "bf3a9544e3c4672bd177080274e43059a888e0d2af02592d337a09f0dbcf90f8",
        "3e7229826df3c539cc2de962f20cff0ea6208820a6424ed2e31ed01af67d798b",
        "0336bb5996c6b38da486c91dc843c47e9e49ecd3288208932667605296863fca",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# A crowded scene: 48 objects on a jittered 8 x 6 grid in a 1280 x 720
# viewport, a camera that pans 160 px right and 80 px down and comes back,
# light noise, and one cone that contains, carries and releases a cube.
# Hashes as in GOLDEN.
CROWD_GOLDEN = (
    "7af1782d791c561260ac2b7354aa4ca56d6f3f96128f7dae101a92c085b48de7",
    "57989bba1d22e48d0f638247f8b3acad2ef5a23eb4a17f7dd83492302cd336d2",
    "90a6791527902d742b506a9f877686f9b1031442f54670937e332f7c20b7d5f2",
)


def _crowd_scenario(seed: int) -> dict:
    rng = random.Random(seed)
    kinds = ("cube", "sphere", "cylinder", "cone")
    sides = {"cube": 30.0, "sphere": 24.0, "cylinder": 26.0, "cone": 40.0, "snitch": 18.0}
    objects, names, counts = [], {}, {}
    for row in range(6):
        for col in range(8):
            kind = "snitch" if (col, row) == (4, 3) else kinds[(row * 8 + col) % 4]
            name = f"{kind}{counts.get(kind, 0)}"
            counts[kind] = counts.get(kind, 0) + 1
            names[(col, row)] = name
            start = [160.0 * (col + 0.5) + rng.uniform(-8.0, 8.0),
                     120.0 * (row + 0.5) + rng.uniform(-8.0, 8.0)]
            objects.append({"name": name, "type": kind, "size": [sides[kind]] * 2, "start": start})
    cone, cube = names[(3, 1)], names[(4, 1)]
    tx, ty = next(o["start"] for o in objects if o["name"] == cube)
    carry = [tx + 40.0, ty]
    return {
        "seed": seed,
        "frames": 100,
        "viewport": [1280.0, 720.0],
        "objects": objects,
        "script": [
            {"kind": "contain", "subject": cone, "start": 10, "end": 30, "target": cube},
            {"kind": "slide", "subject": cone, "start": 36, "end": 60, "dest": carry},
            {"kind": "uncontain", "subject": cone, "start": 66, "end": 82, "target": cube,
             "dest": [carry[0], carry[1] + 45.0]},
        ],
        "camera": [[0, [0.0, 0.0]], [10, [0.0, 0.0]], [50, [160.0, 80.0]], [90, [0.0, 0.0]]],
        "noise": {"miss_rate": 0.05, "ghost_rate": 0.05, "jitter_sigma": 0.5},
    }


def _run(preset, template, seed, noise, tmp_path):
    record = generate(build_template(template, seed, frames=300, noise=noise))
    return _hashes(record, load_engine_config(preset), tmp_path)


def _hashes(record, config, tmp_path):
    engine = AnchoringEngine(config)
    world, predictions, outcomes = [], [], []
    for frame in record.scenario.inputs:
        outcomes.append(
            [
                (o.anchor_id, o.new_status, o.new_confidence, o.new_position, o.reason)
                for o in engine.step(frame)
            ]
        )
        world.append((frame.frame_index, tuple(engine.query())))
        target = engine.predict("snitch")
        predictions.append(target.box if target is not None else None)
    world_path = tmp_path / "world.jsonl"
    predictions_path = tmp_path / "predictions.jsonl"
    write_world_stream(world_path, world)
    write_predictions(predictions_path, predictions)
    return (
        _sha(world_path.read_bytes()),
        _sha(predictions_path.read_bytes()),
        _sha(repr(outcomes).encode()),
    )


@pytest.mark.parametrize(
    "preset, template, seed, noise", CASES, ids=[f"{p}-{t}-{s}" for p, t, s, _ in CASES]
)
def test_engine_streams_match_golden_hashes(preset, template, seed, noise, tmp_path):
    assert _run(preset, template, seed, noise, tmp_path) == GOLDEN[(preset, template, seed)]


def test_crowded_panning_scene_matches_golden_hashes(tmp_path):
    record = generate(scenario_config_from_json(_crowd_scenario(0)))
    config = replace(load_engine_config("benchmark"), field_of_view=(1280.0, 720.0))
    assert _hashes(record, config, tmp_path) == CROWD_GOLDEN
