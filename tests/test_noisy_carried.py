"""The engine's lead over the heuristic on ``carried`` scenes under detector noise.

In a ``carried`` scene the snitch spends most frames under a cone, hidden or
carried, where the heuristic's last-seen box goes stale. Misses, ghosts and
jitter must not cost the engine that lead. The seeds are a bank that no
threshold was tuned on.
"""

from __future__ import annotations

from anchorkit.core import EngineConfig
from anchorkit.metrics import OVERALL, aggregate, score_stream
from anchorkit.pipeline import run_engine_stream, run_heuristic_stream
from anchorkit.simulate import NoiseConfig, build_template, generate

BENCH_NOISE = NoiseConfig(miss_rate=0.1, ghost_rate=0.1, jitter_sigma=1.0)
SEEDS = range(20000, 20020)


def overall_iou(videos) -> float:
    rows, _ = aggregate(videos)
    return next(r.mean_iou for r in rows if r.subtask == OVERALL)


def test_engine_leads_the_heuristic_by_a_fifth_under_noise():
    engine_videos, heuristic_videos = [], []
    for seed in SEEDS:
        scenario = generate(build_template("carried", seed, noise=BENCH_NOISE)).scenario
        engine_run = run_engine_stream(scenario.inputs, EngineConfig())
        engine_videos.append(score_stream(engine_run.predictions, scenario))
        heuristic_run = run_heuristic_stream(scenario.inputs)
        heuristic_videos.append(score_stream(heuristic_run.predictions, scenario))
    engine, heuristic = overall_iou(engine_videos), overall_iou(heuristic_videos)
    assert engine >= heuristic + 0.2, (engine, heuristic)
