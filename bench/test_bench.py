"""Tests of the benchmark itself: span arithmetic, input determinism, and the
agreement of BENCHMARK.json with what the command prints.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import Span, Tracer, instrument, self_times

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a: together they cover [1, 6]
        Span("a.inner", 2.0, 3.0, 1, 1),
        Span("late", 9.0, 12.0, 0, 1),  # only [9, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_nests_spans_and_shares_trace_ids_within_a_frame():
    tracer = Tracer()
    with tracer.span("frame", new_trace=True):
        with tracer.span("step"):
            with tracer.span("align"):
                pass
        with tracer.span("query"):
            pass
    with tracer.span("frame", new_trace=True):
        pass
    names = [(s.name, s.parent, s.trace) for s in tracer.spans]
    assert names == [
        ("frame", None, 1), ("step", 0, 1), ("align", 1, 1), ("query", 0, 1), ("frame", None, 2),
    ]
    totals = tracer.totals()
    assert totals["frame"]["calls"] == 2
    assert totals["step"]["self_s"] <= totals["step"]["total_s"]


def test_instrument_counts_layer_calls_and_restores_the_originals():
    from anchorkit import alignment, tracker

    original = (tracker.step, alignment.build_cost_matrix)
    frames, config = run.grid_stream(5, 3)
    tracer = Tracer()
    with instrument(tracer):
        engine = tracker.AnchoringEngine(config)
        for frame in frames:
            engine.step(frame)
    assert (tracker.step, alignment.build_cost_matrix) == original
    totals = tracer.totals()
    assert totals["tracker.step"]["calls"] == 3
    assert totals["alignment.build_cost_matrix"]["calls"] == 3
    # Frame 0 creates 5 candidates, frame 1 promotes them, frame 2 matches them.
    assert tracer.counts["outcome.newly_anchored"] == 5
    assert tracer.counts["outcome.matched"] == 5
    assert tracer.counts["cost_cells"] == 2 * 25


def test_typical_latency_is_the_per_frame_median_over_passes():
    passes = [
        [1.0, 5.0, 1.0],
        [9.0, 9.0, 9.0],
        [2.0, 3.0, 2.0],
        [3.0, 4.0, 8.0],
    ]
    assert run.typical_latencies(passes) == [2.5, 4.5, 5.0]
    assert run.typical_latencies([[1.0, 2.0]]) == [1.0, 2.0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_deterministic_per_seed(name):
    build = workloads.WORKLOADS[name]
    assert build(7) == build(7)
    assert build(7) != build(8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_files_repeat_byte_for_byte(name, tmp_path):
    from anchorkit import cli

    scenario = workloads.WORKLOADS[name](3).scenarios[-1]
    argv = list(scenario.simulate_args)
    if scenario.scenario_config is not None:
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(scenario.scenario_config), encoding="utf-8")
        argv += ["--scenario-config", str(config)]
    for out in ("a", "b"):
        assert cli.main(["simulate", "--out", str(tmp_path / out), "--name", "s", *argv]) == 0
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["unit"], m["better"]) for m in spec[section]}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {name: unit for name, (unit, _) in _declared(section).items()}


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
