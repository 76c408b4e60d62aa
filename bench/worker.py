"""Fresh-process set-up probe, started by run.py.

    python3 bench/worker.py SRC CONFIG VERIFY_DIR TRACE DETECTIONS...

Times ``import anchorkit``, the engine-config load and
``read_detection_stream`` of every DETECTIONS file, as a user's first frame
would wait for them. With VERIFY_DIR other than ``-`` it then runs every
stream with ``check_invariants=True`` (untimed), writes each stream's world
and prediction files into VERIFY_DIR, and reports the peak resident set.
TRACE=1 also reports span totals of that verification pass. Prints one JSON
object.
"""

import sys
import time


def main(argv: list[str]) -> dict:
    src, config_spec, verify_dir, trace = argv[:4]
    paths = argv[4:]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import anchorkit

    imported = time.perf_counter()
    from anchorkit.io_jsonl import load_engine_config, read_detection_stream

    config = load_engine_config(config_spec)
    streams = [read_detection_stream(path) for path in paths]
    ready = time.perf_counter()

    from pathlib import Path

    if Path(anchorkit.__file__).resolve().parent != (Path(src) / "anchorkit").resolve():
        raise SystemExit(f"imported anchorkit from {anchorkit.__file__}, not from {src}")
    report = {
        "import_s": imported - started,
        "setup_s": ready - started,
        "frames": sum(len(s) for s in streams),
    }
    if verify_dir != "-":
        report.update(verify(config, paths, streams, Path(verify_dir), trace == "1"))
    return report


def verify(config, paths, streams, out_dir, trace: bool) -> dict:
    import contextlib
    import resource
    from pathlib import Path

    from anchorkit.core import EngineError
    from anchorkit.io_jsonl import write_predictions, write_world_stream
    from anchorkit.pipeline import run_engine_stream

    from spans import Tracer, instrument

    tracer = Tracer()
    failures = []
    broken_frames = 0
    with instrument(tracer, {"core"}) if trace else contextlib.nullcontext():
        for path, frames in zip(paths, streams):
            stem = Path(path).name[: -len(".detections.jsonl")]
            try:
                run = run_engine_stream(frames, config, check_invariants=True)
            except EngineError as exc:
                failures.append(f"{path}: {exc}")
                broken_frames += len(frames)
                continue
            write_world_stream(out_dir / f"{stem}.world.jsonl", run.world)
            write_predictions(out_dir / f"{stem}.predictions.jsonl", run.predictions)
    report = {
        "failures": failures,
        "broken_frames": broken_frames,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        report["spans"] = tracer.totals()
    return report


if __name__ == "__main__":
    result = main(sys.argv[1:])
    import json  # after main(), so that the timed import of anchorkit pays for it

    print(json.dumps(result))
