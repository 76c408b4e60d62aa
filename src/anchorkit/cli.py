"""Command-line pipeline: simulate, track, eval, compare."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .core import ConfigError, EngineError
from .io_jsonl import (
    load_engine_config,
    load_scenario,
    read_config_file,
    read_detection_stream,
    read_predictions,
    write_detection_stream,
    write_predictions,
    write_truth_stream,
    write_world_stream,
)
from .metrics import (
    EvalError,
    aggregate,
    render_table,
    results_csv,
    results_json_payload,
    score_stream,
)
from .pipeline import TRACKERS, run_tracker, score_scenarios
from .simulate import TEMPLATES, NoiseConfig, build_template, generate, scenario_config_from_json


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("simulate", help="generate scenario files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--name", default="scenario", help="file name stem")
    p.add_argument("--seed", type=int,
                   help="first seed (default 0); a scenario file that sets seed takes none")
    p.add_argument("--frames", type=int, help="frame count; templates only")
    p.add_argument("--template", choices=TEMPLATES, help="scenario template (default random)")
    p.add_argument("--scenario-config", default=None,
                   help="JSON scenario description, instead of a template and its flags")
    p.add_argument("--count", type=int, default=1, help="number of scenarios (seed, seed+1, ...)")
    p.add_argument("--objects", type=int, default=None,
                   help="object count (2..8, default 8); static and camera templates only")
    p.add_argument("--miss-rate", type=float)
    p.add_argument("--ghost-rate", type=float)
    p.add_argument("--jitter-sigma", type=float)
    p.add_argument("--burst", type=int, help="miss/ghost burst length in frames")


def _add_track(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("track", help="run a tracker over a detection stream")
    p.add_argument("--detections", required=True)
    p.add_argument("--tracker", choices=TRACKERS, default="aapa")
    p.add_argument("--config", default="benchmark", help="preset name or JSON path")
    p.add_argument("--world-out", default=None, help="world stream output (aapa only)")
    p.add_argument("--predictions-out", default=None, help="target prediction stream output")


def _add_eval(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("eval", help="score predictions against one scenario")
    p.add_argument("--scenario", required=True,
                   help="path prefix: expects <prefix>.detections.jsonl and <prefix>.truth.jsonl")
    p.add_argument("--predictions", required=True)
    p.add_argument("--tracker-name", default="tracker", help="label for the output rows")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)


def _add_compare(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("compare", help="run both trackers over a scenario directory")
    p.add_argument("--scenarios", required=True, help="directory of scenario file pairs")
    p.add_argument("--config", default="benchmark", help="preset name or JSON path")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.count < 1:
        print(f"error: --count must be >= 1, got {args.count}", file=sys.stderr)
        return 1
    seed = 0 if args.seed is None else args.seed
    if args.scenario_config:
        template_flags = ("template", "frames", "miss_rate", "ghost_rate", "jitter_sigma", "burst")
        scopes = dict(objects="the static and camera templates",
                      **dict.fromkeys(template_flags, "the templates"))
        for flag, scope in scopes.items():
            if getattr(args, flag) is not None:
                print(f"error: --{flag.replace('_', '-')} applies to {scope}, "
                      "not to a scenario config file", file=sys.stderr)
                return 1
        if seed < 0:  # a flag error, whether or not the file sets its own seed
            print("error: seed must be >= 0", file=sys.stderr)
            return 1

        def write(raw: dict) -> None:  # in the reader, so generation errors name the file
            if "seed" in raw and args.seed is not None:
                raise ConfigError("sets seed, so --seed does not apply")
            first = scenario_config_from_json(raw, seed)
            _write_scenarios(args, "file", (
                dataclasses.replace(first, seed=first.seed + i) for i in range(args.count)))

        read_config_file(args.scenario_config, write)
        return 0
    flags = {"miss_rate": args.miss_rate, "ghost_rate": args.ghost_rate,
             "jitter_sigma": args.jitter_sigma, "flicker_burst_length": args.burst}
    noise = NoiseConfig(**{field: value for field, value in flags.items() if value is not None})
    template = args.template or "random"
    _write_scenarios(args, template, (
        build_template(template, seed + i, args.frames, args.objects, noise) for i in range(args.count)
    ))
    return 0


def _write_scenarios(args: argparse.Namespace, template: str, configs) -> None:
    """Generate and write each config in turn: detections, truth and meta."""
    out = Path(args.out)
    for i, config in enumerate(configs):
        record = generate(config)
        out.mkdir(parents=True, exist_ok=True)
        stem = args.name if args.count == 1 else f"{args.name}_{i:03d}"
        write_detection_stream(out / f"{stem}.detections.jsonl", record.scenario.inputs)
        write_truth_stream(out / f"{stem}.truth.jsonl", record.scenario)
        meta = {
            "seed": config.seed,
            "frames": record.frames,
            "template": template,
            "viewport": list(config.viewport),
            "objects": [
                {"name": o.name, "type": o.object_type, "size": list(o.size)}
                for o in record.objects
            ],
            "noise": dataclasses.asdict(config.noise),
        }
        (out / f"{stem}.meta.json").write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {out / stem}.{{detections,truth}}.jsonl")


def _cmd_track(args: argparse.Namespace) -> int:
    if args.world_out and args.tracker != "aapa":
        print("error: --world-out is only available with --tracker=aapa", file=sys.stderr)
        return 1
    if not args.world_out and not args.predictions_out:
        print("error: nothing to write (pass --world-out and/or --predictions-out)",
              file=sys.stderr)
        return 1
    config = load_engine_config(args.config)
    frames = read_detection_stream(args.detections)
    try:
        run = run_tracker(frames, args.tracker, config)
    except EngineError as exc:
        raise EngineError(f"{args.detections}: {exc}") from None
    if args.world_out:
        write_world_stream(args.world_out, run.world)
        print(f"wrote {args.world_out}")
    if args.predictions_out:
        write_predictions(args.predictions_out, run.predictions)
        print(f"wrote {args.predictions_out}")
    return 0


def _emit_results(rows, excluded_total: int, args: argparse.Namespace) -> None:
    print(render_table(rows))
    if excluded_total:
        print(f"excluded videos (target never detected): {excluded_total}")
    if args.out_csv:
        Path(args.out_csv).write_text(results_csv(rows), encoding="utf-8")
        print(f"wrote {args.out_csv}")
    if args.out_json:
        payload = results_json_payload(rows, excluded_total)
        Path(args.out_json).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out_json}")


def _cmd_eval(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    predictions = read_predictions(args.predictions)
    try:
        scores = score_stream(predictions, scenario)
    except EvalError as exc:
        # ``load_scenario`` checked the scenario: the frame count is what is left.
        raise EvalError(f"{args.predictions}: {exc}") from None
    stats, excluded = aggregate([scores])
    rows = [(args.tracker_name, entry) for entry in stats]
    _emit_results(rows, excluded, args)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    directory = Path(args.scenarios)
    prefixes = sorted(
        str(p)[: -len(".detections.jsonl")]
        for p in directory.glob("*.detections.jsonl")
    )
    if not prefixes:
        print(f"error: no *.detections.jsonl files under {directory}", file=sys.stderr)
        return 1
    config = load_engine_config(args.config)
    scenarios = {f"{prefix}.detections.jsonl": load_scenario(prefix) for prefix in prefixes}
    rows, excluded = score_scenarios(scenarios, config)
    _emit_results(rows, excluded, args)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="anchorkit",
        description="Persistent object anchoring: simulate scenarios, run trackers, score results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_track(sub)
    _add_eval(sub)
    _add_compare(sub)
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "track": _cmd_track,
        "eval": _cmd_eval,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
