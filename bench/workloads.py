"""Benchmark workloads: which scenarios ``anchorkit simulate`` generates for a seed.

A workload is a list of scenarios plus the engine configuration that tracks
them. Every scenario is generated by the ``simulate`` command, from a template
or from a scenario-config JSON that this module builds. The same workload
seed always gives the same command lines and JSON, hence the same files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# suite: the paper's test bed, equal parts of each family.
SUITE_PER_TEMPLATE = 6
SUITE_FRAMES = 300
SUITE_NOISE = ("--miss-rate", "0.1", "--ghost-rate", "0.1", "--jitter-sigma", "1.0")

# crowd: an 8 x 6 grid, 48 objects, in a 1280 x 720 viewport. Ten scenarios
# of 100 frames give the 1000 frames that a p99 over frames needs; short files
# keep each timed command short, close in time to the passes around it.
CROWD_SCENARIOS = 10
CROWD_FRAMES = 100
CROWD_COLS, CROWD_ROWS = 8, 6
CROWD_PITCH = (160.0, 120.0)
CROWD_VIEWPORT = (CROWD_COLS * CROWD_PITCH[0], CROWD_ROWS * CROWD_PITCH[1])
CROWD_TYPES = ("cube", "sphere", "cylinder", "cone")
CROWD_SIZES = {"cube": 30.0, "sphere": 24.0, "cylinder": 26.0, "cone": 40.0, "snitch": 18.0}
# Pan 160 px right and 80 px down, then come back; integer deltas divisible
# by their spans keep every pose exact.
CROWD_CAMERA = [[0, [0.0, 0.0]], [10, [0.0, 0.0]], [50, [160.0, 80.0]], [90, [0.0, 0.0]]]
CROWD_NOISE = {"miss_rate": 0.05, "ghost_rate": 0.05, "jitter_sigma": 0.5}
# Start frames of the contain / carry / release combos in each scenario.
CROWD_COMBOS = (10,)


@dataclass(frozen=True)
class Scenario:
    stem: str
    simulate_args: tuple[str, ...]  # ``simulate`` arguments, without --out/--name
    scenario_config: dict | None  # written to <stem>.scenario.json when set
    frames: int
    noiseless: bool


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[Scenario, ...]
    engine_config: dict | None  # None: the "benchmark" preset

    @property
    def frames(self) -> int:
        return sum(s.frames for s in self.scenarios)


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(2**31) for _ in range(count)]


def suite(seed: int) -> Workload:
    """Noiseless ``mixed`` and ``carried`` plus noisy ``random``, all under the
    ``benchmark`` preset: about 4-5 detections per frame, contain chains."""
    rng = random.Random(seed)
    scenarios = []
    for template, extra in (("mixed", ()), ("carried", ()), ("random", SUITE_NOISE)):
        for i, scenario_seed in enumerate(_seeds(rng, SUITE_PER_TEMPLATE)):
            scenarios.append(
                Scenario(
                    stem=f"{template}_{i:03d}",
                    simulate_args=(
                        "--template", template, "--seed", str(scenario_seed),
                        "--frames", str(SUITE_FRAMES), *extra,
                    ),
                    scenario_config=None,
                    frames=SUITE_FRAMES,
                    noiseless=not extra,
                )
            )
    return Workload("suite", tuple(scenarios), None)


def _crowd_objects(rng: random.Random) -> list[dict]:
    objects = []
    counts: dict[str, int] = {}
    for row in range(CROWD_ROWS):
        for col in range(CROWD_COLS):
            if (col, row) == (CROWD_COLS // 2, CROWD_ROWS // 2):
                kind = "snitch"
            else:
                kind = CROWD_TYPES[(row * CROWD_COLS + col) % len(CROWD_TYPES)]
            number = counts.get(kind, 0)
            counts[kind] = number + 1
            side = CROWD_SIZES[kind]
            x = CROWD_PITCH[0] * (col + 0.5) + rng.uniform(-8.0, 8.0)
            y = CROWD_PITCH[1] * (row + 0.5) + rng.uniform(-8.0, 8.0)
            objects.append(
                {"name": f"{kind}{number}", "type": kind, "size": [side, side],
                 "start": [x, y], "cell": (col, row)}
            )
    return objects


def _crowd_script(rng: random.Random, objects: list[dict]) -> list[dict]:
    """Contain / carry / release combos: a cone settles on a grid neighbour,
    carries it half a cell, releases it and backs off."""
    by_cell = {o["cell"]: o for o in objects}
    used: set[str] = set()
    script = []
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for start in CROWD_COMBOS:
        pairs = []
        for cone in objects:
            col, row = cone["cell"]
            if cone["type"] != "cone" or cone["name"] in used:
                continue
            if not (1 <= col < CROWD_COLS - 1 and 1 <= row < CROWD_ROWS - 1):
                continue
            for dc, dr in steps:
                target = by_cell[(col + dc, row + dr)]
                if target["type"] != "cone" and target["name"] not in used:
                    pairs.append((cone, target))
        cone, target = pairs[rng.randrange(len(pairs))]
        used.update((cone["name"], target["name"]))
        dx, dy = steps[rng.randrange(len(steps))]
        tx, ty = target["start"]
        carry = [tx + 40.0 * dx, ty + 40.0 * dy]
        retreat = [carry[0] - 45.0 * dy, carry[1] + 45.0 * dx]
        script += [
            {"kind": "contain", "subject": cone["name"], "start": start, "end": start + 20,
             "target": target["name"]},
            {"kind": "slide", "subject": cone["name"], "start": start + 26, "end": start + 50,
             "dest": carry},
            {"kind": "uncontain", "subject": cone["name"], "start": start + 56,
             "end": start + 72, "target": target["name"], "dest": retreat},
        ]
    return script


def crowd(seed: int) -> Workload:
    """48 objects on a jittered grid, a camera that pans and returns,
    light noise and a few contain/uncontain events per scenario."""
    rng = random.Random(seed)
    scenarios = []
    for i, scenario_seed in enumerate(_seeds(rng, CROWD_SCENARIOS)):
        layout = random.Random(scenario_seed)
        objects = _crowd_objects(layout)
        config = {
            "seed": scenario_seed,
            "frames": CROWD_FRAMES,
            "viewport": list(CROWD_VIEWPORT),
            "objects": [{k: o[k] for k in ("name", "type", "size", "start")} for o in objects],
            "script": _crowd_script(layout, objects),
            "camera": CROWD_CAMERA,
            "noise": CROWD_NOISE,
        }
        scenarios.append(
            Scenario(
                stem=f"crowd_{i:03d}",
                simulate_args=(),
                scenario_config=config,
                frames=CROWD_FRAMES,
                noiseless=False,
            )
        )
    return Workload("crowd", tuple(scenarios), {"field_of_view": list(CROWD_VIEWPORT)})


WORKLOADS = {"suite": suite, "crowd": crowd}
