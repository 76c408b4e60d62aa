"""anchorkit benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload suite --seed 1 --seconds 40 --trace 0

It generates the workload's scenarios with ``anchorkit simulate``, runs them
through the public API and the CLI, checks the outputs and prints every
metric with its unit. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps each layer's public
functions in spans and reports the per-layer metrics instead. A full report
and, for traced runs, every span go to ``bench/results/``.

One caller in one process feeds one stream's frames back to back; a frame is
sent only after the previous ``step`` returned. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"

SETUP_WORKERS = 3  # fresh processes per run; setup_s is their median
PASSES_BETWEEN = 2  # in-memory passes after each timed command
MAX_TRACED_PASSES = 3
WORKER_TIMEOUT_S = 150
NOISELESS_MIN_IOU = 0.99
WARMUP_FRAMES = 50
SCALE_POINTS = ((10, 200), (50, 100), (200, 40), (800, 12))  # (objects, frames)
SCALE_WARMUP = 3
# Layers traced around CLI commands; the engine's own layers are traced on the
# in-memory passes only, which keeps the span count of a traced run bounded.
IO_LAYERS = {"io_jsonl", "pipeline", "metrics", "heuristic", "simulate"}

# name: (unit, better). BENCHMARK.json lists the same names, units and directions.
END_TO_END = {
    "track_fps": ("frames/s", "higher"),
    "frame_ms_p50": ("ms", "lower"),
    "frame_ms_p99": ("ms", "lower"),
    "track_cli_fps": ("frames/s", "higher"),
    "compare_fps": ("frames/s", "higher"),
    "simulate_fps": ("frames/s", "higher"),
    "setup_s": ("s", "lower"),
    "rss_peak_mb": ("MB", "lower"),
    "iou_overall": ("fraction", "higher"),
}

REASONS = (
    "matched", "newly_anchored", "occluder_overlap", "outside_fov",
    "parent_follow", "decay", "pruned",
)

PER_LAYER = {
    "alignment.build_cost_matrix.ms_per_frame": ("ms", "lower"),
    "alignment.solve_assignment.self_ms_per_frame": ("ms", "lower"),
    "alignment.linear_sum_assignment.ms_per_frame": ("ms", "lower"),
    "alignment.align.self_ms_per_frame": ("ms", "lower"),
    "alignment.compensate_camera_motion.ms_per_frame": ("ms", "lower"),
    "alignment.compensate_camera_motion.calls_per_frame": ("count", "lower"),
    "alignment.cost_cells_per_frame": ("count", "lower"),
    "alignment.cells_below_tau_share": ("fraction", "higher"),
    "alignment.match_yield": ("fraction", "higher"),
    "hypothesis.classify_unmatched.ms_per_frame": ("ms", "lower"),
    "hypothesis.classify_unmatched.calls_per_frame": ("count", "lower"),
    "hypothesis.propagate_attachments.ms_per_frame": ("ms", "lower"),
    "hypothesis.apply_action.ms_per_frame": ("ms", "lower"),
    "hypothesis.apply_action.errors": ("count", "lower"),
    "hypothesis.update_confidence.ms_per_frame": ("ms", "lower"),
    "hypothesis.update_confidence.calls_per_frame": ("count", "lower"),
    "tracker.step.self_ms_per_frame": ("ms", "lower"),
    "tracker.tracks_per_frame": ("count", "lower"),
    "tracker.candidates_per_frame": ("count", "lower"),
    **{f"tracker.outcome.{reason}_per_frame": ("count", "higher" if reason == "matched" else "lower")
       for reason in REASONS},
    "tracker.query.us_per_frame": ("us", "lower"),
    "tracker.predict_target.us_per_frame": ("us", "lower"),
    "pipeline.frame.self_us_per_frame": ("us", "lower"),
    "cli.track.self_ms_per_frame": ("ms", "lower"),
    "io_jsonl.read_detection_stream.ms_per_frame": ("ms", "lower"),
    "io_jsonl.load_scenario.ms_per_frame": ("ms", "lower"),
    "io_jsonl.write_world_stream.ms_per_frame": ("ms", "lower"),
    "io_jsonl.world_bytes_per_frame": ("B", "lower"),
    "io_jsonl.write_predictions.ms_per_frame": ("ms", "lower"),
    "simulate.generate.ms_per_frame": ("ms", "lower"),
    "metrics.score_stream.ms_per_frame": ("ms", "lower"),
    "heuristic.step.us_per_frame": ("us", "lower"),
    "core.validate_world_model.ms_per_frame": ("ms", "lower"),
    "setup.import_s": ("s", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
    **{f"scale.n{n}.step_ms": ("ms", "lower") for n, _ in SCALE_POINTS},
}


def _timed_frames(frames, latencies: list[float], tracer: Tracer | None):
    """Hand frames to ``run_engine_stream`` one at a time. The time from handing
    out a frame to being asked for the next is that frame's latency: step,
    query and predict, plus the loop's own bookkeeping."""
    for frame in frames:
        if tracer is not None:
            tracer.new_trace()
            span = tracer.begin("pipeline.frame")
        start = time.perf_counter()
        yield frame
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end(span)


def typical_latencies(passes: list[list[float]]) -> list[float]:
    """Per-frame latency of one stream: its median over the stream's timed passes."""
    return [statistics.median(frame) for frame in zip(*passes)]


def _fastest_total(rounds: list[list[float]]) -> float:
    """Sum over the parts of a round (streams, files) of each part's fastest repeat."""
    return sum(min(repeats) for repeats in zip(*rounds))


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _differing_lines(a: Path, b: Path) -> int:
    left = a.read_text(encoding="utf-8").splitlines()
    right = b.read_text(encoding="utf-8").splitlines()
    return sum(x != y for x, y in zip(left, right)) + abs(len(left) - len(right))


def grid_stream(n_objects: int, n_frames: int):
    """A static grid of ``n_objects`` detections repeated for ``n_frames`` frames."""
    from anchorkit.core import Attributes, EngineConfig, Percept
    from anchorkit.tracker import FrameInput

    kinds = (("cube", 30.0), ("sphere", 24.0), ("cylinder", 26.0), ("cone", 40.0))
    cols = math.ceil(math.sqrt(n_objects))
    rows = math.ceil(n_objects / cols)
    pitch = 60.0
    percepts = []
    for i in range(n_objects):
        kind, side = ("snitch", 18.0) if i == 0 else kinds[i % len(kinds)]
        position = (pitch * (i % cols + 1), pitch * (i // cols + 1))
        percepts.append(Percept(i, Attributes(kind, position, (side, side))))
    config = EngineConfig(field_of_view=(pitch * (cols + 1), pitch * (rows + 1)))
    frames = [FrameInput(f, tuple(percepts)) for f in range(n_frames)]
    return frames, config


def scale_curve() -> dict[str, float]:
    """Median ``step`` time per frame against the object count, untraced."""
    from anchorkit.tracker import AnchoringEngine

    out = {}
    for n_objects, n_frames in SCALE_POINTS:
        frames, config = grid_stream(n_objects, n_frames)
        engine = AnchoringEngine(config)
        times = []
        for frame in frames:
            start = time.perf_counter()
            engine.step(frame)
            times.append(time.perf_counter() - start)
        out[f"scale.n{n_objects}.step_ms"] = 1000.0 * statistics.median(times[SCALE_WARMUP:])
    return out


class Bench:
    """State of one benchmark run: inputs, outputs, op counts and failures."""

    def __init__(self, workload: workloads.Workload, seconds: float, work: Path):
        from anchorkit import pipeline
        from anchorkit.io_jsonl import load_engine_config

        self.pipeline = pipeline
        self.workload = workload
        self.seconds = seconds
        self.work = work
        self.scenario_dir = work / "scenarios"
        self.regen_dir = work / "regenerated"
        self.track_dir = work / "track"
        self.verify_dir = work / "verify"
        self.compare_dir = work / "compare"
        self.config_dir = work / "configs"
        for directory in (self.scenario_dir, self.regen_dir, self.track_dir,
                          self.verify_dir, self.compare_dir, self.config_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.config_spec = "benchmark"
        if workload.engine_config is not None:
            path = self.config_dir / "engine.json"
            path.write_text(json.dumps(workload.engine_config), encoding="utf-8")
            self.config_spec = str(path)
        for scenario in workload.scenarios:
            if scenario.scenario_config is not None:
                (self.config_dir / f"{scenario.stem}.json").write_text(
                    json.dumps(scenario.scenario_config), encoding="utf-8"
                )
        self.config = load_engine_config(self.config_spec)
        self.stems = [s.stem for s in workload.scenarios]
        self.frames = workload.frames
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.streams: list = []
        self.reference: list = [None] * len(self.stems)  # first predictions per stream

    # -- ops --------------------------------------------------------------

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.failures.append(message)

    def cli(self, argv: list[str]) -> float:
        """Run one ``anchorkit`` command in-process; return its wall time."""
        from anchorkit import cli

        self.attempted += 1
        sink = io.StringIO()
        tracing = self.tracer.span(f"cli.{argv[0]}", new_trace=True) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with tracing, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except (Exception, SystemExit):
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(1, f"anchorkit {' '.join(argv)}: exit {code}\n{sink.getvalue()[-2000:]}")
        return elapsed

    def simulate_one(self, scenario: workloads.Scenario, out_dir: Path) -> float:
        argv = ["simulate", "--out", str(out_dir / scenario.stem), "--name", scenario.stem]
        if scenario.scenario_config is not None:
            argv += ["--scenario-config", str(self.config_dir / f"{scenario.stem}.json")]
        return self.cli(argv + list(scenario.simulate_args))

    def simulate(self, out_dir: Path) -> None:
        for scenario in self.workload.scenarios:
            self.simulate_one(scenario, out_dir)

    def detections(self, stem: str) -> Path:
        return self.scenario_dir / stem / f"{stem}.detections.jsonl"

    def outputs(self, directory: Path, stem: str) -> tuple[Path, Path]:
        return directory / f"{stem}.world.jsonl", directory / f"{stem}.predictions.jsonl"

    def track_one(self, stem: str) -> float:
        world, predictions = self.outputs(self.track_dir, stem)
        return self.cli([
            "track", "--detections", str(self.detections(stem)), "--config", self.config_spec,
            "--world-out", str(world), "--predictions-out", str(predictions),
        ])

    def compare_one(self, stem: str) -> float:
        """``compare`` over the scenario's own directory, which holds only it."""
        return self.cli([
            "compare", "--scenarios", str(self.scenario_dir / stem), "--config", self.config_spec,
            "--out-json", str(self.compare_dir / f"{stem}.json"),
        ])

    def engine_stream(self, index: int) -> tuple[float, list[float] | None, list | None]:
        """``run_engine_stream`` over one stream: wall time, the latency of every
        frame and the predictions (both None if it raised)."""
        frames = self.streams[index]
        self.attempted += len(frames)
        latencies: list[float] = []
        start = time.perf_counter()
        try:
            run = self.pipeline.run_engine_stream(
                _timed_frames(frames, latencies, self.tracer), self.config
            )
        except Exception:
            self.fail(len(frames), f"{self.stems[index]}: run_engine_stream raised\n{traceback.format_exc()}")
            return time.perf_counter() - start, None, None
        return time.perf_counter() - start, latencies, run.predictions

    def engine_pass(self) -> list[float]:
        """Every stream once; wall time per stream."""
        times = []
        for i in range(len(self.streams)):
            elapsed, _, predictions = self.engine_stream(i)
            self.remember(i, predictions)
            times.append(elapsed)
        return times

    # -- set-up -----------------------------------------------------------

    def worker(self, verify: bool, trace: bool) -> dict | None:
        argv = [
            sys.executable, str(BENCH / "worker.py"), str(SRC), self.config_spec,
            str(self.verify_dir) if verify else "-", "1" if trace else "0",
            *(str(self.detections(stem)) for stem in self.stems),
        ]
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT
            )
        except subprocess.TimeoutExpired:
            self.fail(self.frames if verify else 1, "set-up worker timed out")
            return None
        if proc.returncode != 0:
            self.fail(self.frames if verify else 1, f"set-up worker failed:\n{proc.stderr[-2000:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self, trace: bool) -> dict:
        """Fresh-process set-up samples; the first also verifies every stream."""
        reports = [self.worker(verify=i == 0, trace=trace) for i in range(SETUP_WORKERS)]
        verifier = reports[0] or {}
        self.attempted += self.frames
        if verifier.get("broken_frames"):
            self.fail(verifier["broken_frames"], "invariants broken: " + "; ".join(verifier["failures"]))
        done = [r for r in reports if r is not None]
        return {
            "setup_s": statistics.median(r["setup_s"] for r in done) if done else math.nan,
            "import_s": statistics.median(r["import_s"] for r in done) if done else math.nan,
            "samples": len(done),
            "maxrss_kb": verifier.get("maxrss_kb", math.nan),
            "spans": verifier.get("spans", {}),
        }

    def load_streams(self) -> None:
        from anchorkit.io_jsonl import read_detection_stream

        self.streams = [read_detection_stream(self.detections(stem)) for stem in self.stems]
        warm = self.streams[0][:WARMUP_FRAMES]
        self.pipeline.run_engine_stream(warm, self.config)

    # -- checks -----------------------------------------------------------

    def remember(self, index: int, predictions: list | None) -> None:
        """Keep a stream's first predictions; later passes must repeat them."""
        want = self.reference[index]
        if want is None:
            self.reference[index] = predictions
        elif predictions is not None and predictions != want:
            bad = sum(a != b for a, b in zip(predictions, want))
            self.fail(bad, f"{self.stems[index]}: a repeated pass predicted differently on {bad} frames")

    def check_regenerated(self) -> None:
        for path in sorted(self.scenario_dir.glob("*/*.jsonl")):
            again = self.regen_dir / path.relative_to(self.scenario_dir)
            if not again.exists() or again.read_bytes() != path.read_bytes():
                self.fail(1, f"simulate is not deterministic: {path.name} differs on regeneration")

    def track_hashes(self) -> dict[str, str]:
        worlds = [self.outputs(self.track_dir, stem)[0] for stem in self.stems]
        predictions = [self.outputs(self.track_dir, stem)[1] for stem in self.stems]
        if not all(p.exists() for p in worlds + predictions):
            return {}
        return {"world_sha256": _sha256(worlds), "predictions_sha256": _sha256(predictions)}

    def check_outputs(self) -> None:
        """CLI, in-memory and verification outputs agree; noiseless scenarios
        are tracked exactly."""
        from anchorkit.io_jsonl import load_scenario, read_predictions
        from anchorkit.metrics import score_stream

        for scenario, want in zip(self.workload.scenarios, self.reference):
            world, predictions = self.outputs(self.track_dir, scenario.stem)
            if not predictions.exists() or want is None:
                continue
            got = read_predictions(predictions)
            bad = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
            if bad:
                self.fail(bad, f"{scenario.stem}: CLI and in-memory predictions differ on {bad} frames")
            for ours, theirs in zip((world, predictions), self.outputs(self.verify_dir, scenario.stem)):
                if theirs.exists():
                    bad = _differing_lines(ours, theirs)
                    if bad:
                        self.fail(bad, f"{ours.name}: CLI and verification pass differ on {bad} frames")
            if scenario.noiseless:
                scores = score_stream(want, load_scenario(self.scenario_dir / scenario.stem / scenario.stem))
                low = {b: v for b, v in scores.mean_iou.items() if v < NOISELESS_MIN_IOU}
                if low:
                    self.fail(scenario.frames, f"{scenario.stem}: noiseless IoU below {NOISELESS_MIN_IOU}: {low}")

    def iou_overall(self) -> float:
        """Mean over scenarios of the aapa overall IoU that ``compare`` wrote;
        the same number one ``compare`` over all of them reports."""
        values = []
        for stem in self.stems:
            path = self.compare_dir / f"{stem}.json"
            if path.exists():
                payload = json.loads(path.read_text(encoding="utf-8"))
                values += [row["mean_iou"] for row in payload["results"]
                           if row["tracker"] == "aapa" and row["subtask"] == "overall"]
        return statistics.mean(values) if values else math.nan

    # -- runs -------------------------------------------------------------

    def measure(self) -> tuple[dict, dict]:
        """Untraced run: the end-to-end metrics."""
        clock = [time.perf_counter()]
        self.simulate(self.scenario_dir)
        clock.append(time.perf_counter())
        setup = self.setup(trace=False)
        self.load_streams()
        clock.append(time.perf_counter())

        scenarios = dict(zip(self.stems, self.workload.scenarios))
        commands = {
            "track": self.track_one,
            "compare": self.compare_one,
            "simulate": lambda stem: self.simulate_one(scenarios[stem], self.regen_dir),
        }
        passes: list[list[list[float]]] = [[] for _ in self.streams]  # per stream: per pass, per frame
        ratios = {name: [[] for _ in self.stems] for name in commands}
        rounds = 0
        hashes: dict[str, str] = {}
        deadline = time.perf_counter() + self.seconds

        def timed_pass(i: int) -> float:
            elapsed, latencies, predictions = self.engine_stream(i)
            if latencies is not None:
                passes[i].append(latencies)
            self.remember(i, predictions)
            return elapsed

        def done() -> bool:
            """Time is up and every command has run on every scenario."""
            return time.perf_counter() >= deadline and all(
                r for per_stem in ratios.values() for r in per_stem
            )

        while not done():
            for i, stem in enumerate(self.stems):
                if done():
                    break
                # Each command runs between two in-memory passes over the same
                # scenario; the host's state at that moment cancels in the ratio.
                before = timed_pass(i)
                for name, command in commands.items():
                    elapsed = command(stem)
                    after = timed_pass(i)
                    ratios[name][i].append(2.0 * elapsed / (before + after))
                    for _ in range(PASSES_BETWEEN - 1):
                        after = timed_pass(i)
                    before = after
            rounds += 1
            round_hashes = self.track_hashes()
            if not hashes:
                hashes = round_hashes
            elif round_hashes != hashes:
                self.fail(1, "a repeated track wrote different streams")
            self.check_regenerated()

        clock.append(time.perf_counter())
        self.check_outputs()
        clock.append(time.perf_counter())
        typical = [
            typical_latencies(runs) if runs else [math.nan] * len(frames)
            for runs, frames in zip(passes, self.streams)
        ]
        pass_s = [sum(frame_times) for frame_times in typical]
        command_s = {
            name: sum(p * statistics.median(r) for p, r in zip(pass_s, ratios[name]))
            for name in commands
        }
        per_frame = [t for frame_times in typical for t in frame_times]
        cuts = statistics.quantiles(per_frame, n=100)
        n = self.frames
        metrics = {
            "track_fps": n / sum(pass_s),
            "frame_ms_p50": 1000.0 * cuts[49],
            "frame_ms_p99": 1000.0 * cuts[98],
            "track_cli_fps": n / command_s["track"],
            "compare_fps": n / command_s["compare"],
            "simulate_fps": n / command_s["simulate"],
            "setup_s": setup["setup_s"],
            "rss_peak_mb": setup["maxrss_kb"] / 1024.0,
            "iou_overall": self.iou_overall(),
        }
        counts = [len(runs) for runs in passes]
        info = {
            "frames": n,
            "latency_samples": {"frames": len(per_frame),
                                "passes_per_stream": [min(counts), max(counts)]},
            "rounds": rounds,
            "setup_samples": setup["samples"],
            "phase_s": dict(zip(("generate", "setup", "rounds", "checks"),
                                (b - a for a, b in zip(clock, clock[1:])))),
            **hashes,
        }
        return metrics, info

    def traced(self) -> tuple[dict, dict]:
        """Traced run: the per-layer metrics, from spans around each layer."""
        tracers = {name: Tracer() for name in ("simulate", "engine", "track", "compare")}

        with instrument(tracers["simulate"], IO_LAYERS) as self.tracer:
            self.simulate(self.scenario_dir)
        self.tracer = None
        setup = self.setup(trace=True)
        self.load_streams()

        plain: list[list[float]] = []
        traced: list[list[float]] = []
        deadline = time.perf_counter() + self.seconds
        while not traced or (time.perf_counter() < deadline and len(traced) < MAX_TRACED_PASSES):
            plain.append(self.engine_pass())
            with instrument(tracers["engine"]) as self.tracer:
                traced.append(self.engine_pass())
            self.tracer = None
        with instrument(tracers["track"], IO_LAYERS) as self.tracer:
            for stem in self.stems:
                self.track_one(stem)
        with instrument(tracers["compare"], IO_LAYERS) as self.tracer:
            for stem in self.stems:
                self.compare_one(stem)
        self.tracer = None
        hashes = self.track_hashes()
        self.check_outputs()

        metrics = layer_metrics(
            {name: t.totals() for name, t in tracers.items()},
            {name: t.counts for name, t in tracers.items()},
            frames=self.frames,
            engine_frames=self.frames * len(traced),
            verify_spans=setup["spans"],
        )
        metrics["setup.import_s"] = setup["import_s"]
        metrics["trace.overhead_share"] = _fastest_total(traced) / _fastest_total(plain) - 1.0
        metrics.update(scale_curve())
        self.spans = tracers
        info = {"frames": self.frames, "traced_passes": len(traced), **hashes}
        return metrics, info


def layer_metrics(totals: dict, counts: dict, frames: int, engine_frames: int,
                  verify_spans: dict) -> dict[str, float]:
    engine, engine_counts = totals["engine"], counts["engine"]

    def per_frame(table: dict, name: str, key: str = "total_s", scale: float = 1000.0,
                  n: int = frames) -> float:
        return scale * table.get(name, {}).get(key, 0.0) / n

    def ms(name: str, key: str = "total_s") -> float:
        return per_frame(engine, name, key, n=engine_frames)

    def us(name: str, key: str = "total_s") -> float:
        return per_frame(engine, name, key, scale=1e6, n=engine_frames)

    def calls(name: str) -> float:
        return per_frame(engine, name, "calls", scale=1.0, n=engine_frames)

    def ratio(num: float, den: float) -> float:
        return num / den if den else math.nan

    out = {
        "alignment.build_cost_matrix.ms_per_frame": ms("alignment.build_cost_matrix"),
        "alignment.solve_assignment.self_ms_per_frame": ms("alignment.solve_assignment", "self_s"),
        "alignment.linear_sum_assignment.ms_per_frame": ms("alignment.linear_sum_assignment"),
        "alignment.align.self_ms_per_frame": ms("alignment.align", "self_s"),
        "alignment.compensate_camera_motion.ms_per_frame": ms("alignment.compensate_camera_motion"),
        "alignment.compensate_camera_motion.calls_per_frame": calls("alignment.compensate_camera_motion"),
        "alignment.cost_cells_per_frame": engine_counts["cost_cells"] / engine_frames,
        "alignment.cells_below_tau_share": ratio(engine_counts["cells_below_tau"], engine_counts["cost_cells"]),
        "alignment.match_yield": ratio(engine_counts["pairs_kept"], engine_counts["pairs_assigned"]),
        "hypothesis.classify_unmatched.ms_per_frame": ms("hypothesis.classify_unmatched"),
        "hypothesis.classify_unmatched.calls_per_frame": calls("hypothesis.classify_unmatched"),
        "hypothesis.propagate_attachments.ms_per_frame": ms("hypothesis.propagate_attachments"),
        "hypothesis.apply_action.ms_per_frame": ms("hypothesis.apply_action"),
        # Skipped action events per pass over the workload.
        "hypothesis.apply_action.errors": engine_counts["hypothesis.apply_action.errors"]
        * frames / engine_frames,
        "hypothesis.update_confidence.ms_per_frame": ms("hypothesis.update_confidence"),
        "hypothesis.update_confidence.calls_per_frame": calls("hypothesis.update_confidence"),
        "tracker.step.self_ms_per_frame": ms("tracker.step", "self_s"),
        "tracker.tracks_per_frame": engine_counts["tracks"] / engine_frames,
        "tracker.candidates_per_frame": engine_counts["candidates"] / engine_frames,
        **{f"tracker.outcome.{reason}_per_frame": engine_counts[f"outcome.{reason}"] / engine_frames
           for reason in REASONS},
        "tracker.query.us_per_frame": us("tracker.query"),
        "tracker.predict_target.us_per_frame": us("tracker.predict_target"),
        "pipeline.frame.self_us_per_frame": us("pipeline.frame", "self_s"),
        "cli.track.self_ms_per_frame": per_frame(totals["track"], "cli.track", "self_s"),
        "io_jsonl.read_detection_stream.ms_per_frame": per_frame(totals["track"], "io_jsonl.read_detection_stream"),
        "io_jsonl.load_scenario.ms_per_frame": per_frame(totals["compare"], "io_jsonl.load_scenario"),
        "io_jsonl.write_world_stream.ms_per_frame": per_frame(totals["track"], "io_jsonl.write_world_stream"),
        "io_jsonl.world_bytes_per_frame": counts["track"]["world_bytes"] / frames,
        "io_jsonl.write_predictions.ms_per_frame": per_frame(totals["track"], "io_jsonl.write_predictions"),
        "simulate.generate.ms_per_frame": per_frame(totals["simulate"], "simulate.generate"),
        "metrics.score_stream.ms_per_frame": per_frame(totals["compare"], "metrics.score_stream"),
        "heuristic.step.us_per_frame": per_frame(totals["compare"], "heuristic.step", scale=1e6),
        "core.validate_world_model.ms_per_frame": per_frame(verify_spans, "core.validate_world_model"),
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "anchorkit"
    if not (package / "__init__.py").is_file():
        print(f"error: anchorkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anchorkit

    if Path(anchorkit.__file__).resolve().parent != package.resolve():
        print(f"error: imported anchorkit from {anchorkit.__file__}, not {package}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(workload, args.seconds, work)
        metrics, info = bench.traced() if args.trace else bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = PER_LAYER if args.trace else END_TO_END
    correct = bench.failed == 0 and all(math.isfinite(v) for v in metrics.values())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_share": bench.failed / max(bench.attempted, 1),
        "failures": bench.failures,
        "info": info,
        # A value that could not be measured is null, and the run is not correct.
        "metrics": {
            name: {"value": metrics[name] if math.isfinite(metrics[name]) else None,
                   "unit": table[name][0]}
            for name in table
        },
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with gzip.open(stem.with_suffix(".spans.jsonl.gz"), "wt", encoding="utf-8") as handle:
            for phase, tracer in bench.spans.items():
                tracer.write(handle, phase)

    for message in bench.failures:
        print(f"FAILED: {message}")
    for key, value in info.items():
        print(f"{key}: {value}")
    print(f"ops: attempted {bench.attempted}, failed {bench.failed} "
          f"(failed_share {report['failed_share']:.6f})")
    for name, entry in report["metrics"].items():
        print(f"{name:<52} {entry['value']!s:>20} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
