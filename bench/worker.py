"""One invocation of a workload in a fresh interpreter.

Usage: python3 worker.py '<job JSON>'; run_bench.py starts it.  The job names
the checkout root, the spec and the harxlab argv.  The worker imports harxlab
from ``<root>/src`` (and nowhere else), loads the spec once as set-up, then
times ``cli.main(argv)`` between two timings of the calibration kernel
(calibrate.py).  It prints one JSON line: when set-up ended on the
monotonic clock shared with the parent, the two calibration times, the
call's wall and CPU time, its exit code, the process's peak RSS, and, when
tracing, the per-layer counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

VARIANTS = ("lms", "momentum_lms", "flms_signed", "mflms_modulus")


def _import_harxlab(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import harxlab

    if Path(harxlab.__file__).resolve().parent != src / "harxlab":
        raise SystemExit(f"harxlab imported from {harxlab.__file__}, not from {src}")
    return harxlab


def _observe_dataset(counters, args, kwargs, result):
    counters["rows"] = counters.get("rows", 0) + len(result)
    inputs = getattr(result, "inputs", None)
    if inputs is not None:
        counters.setdefault("inputs", set()).add(hashlib.blake2b(inputs.tobytes(), digest_size=16).digest())


def _observe_run(counters, args, kwargs, result):
    counters["diverged"] = counters.get("diverged", 0) + bool(result.diverged)


def _observe_text(counters, args, kwargs, result):
    counters["bytes"] = counters.get("bytes", 0) + len(result.encode("utf-8"))


def _observe_files(counters, args, kwargs, result):
    files = kwargs.get("files", args[1] if len(args) > 1 else {})
    counters["files"] = counters.get("files", 0) + len(files)
    counters["bytes"] = counters.get("bytes", 0) + sum(len(v.encode("utf-8")) for v in files.values())


def _step_variant(args) -> str:
    return "filters.step." + getattr(args[1] if len(args) > 1 else None, "variant", "unknown")


def install(recorder, harxlab) -> None:
    """Wrap each layer's entry points in every harxlab module that binds them."""
    from harxlab import analysis, cli, filters, plant

    mods = [harxlab, plant, filters, analysis, cli]
    recorder.wrap(mods, plant, "generate_sequence", "plant.generate_sequence", observe=_observe_dataset)
    recorder.wrap(mods, analysis, "estimate_correlations", "analysis.estimate_correlations")
    recorder.wrap(mods, analysis, "wiener_solution", "analysis.wiener_solution")
    recorder.wrap(mods, filters, "step", "filters.step", aggregate=_step_variant)
    recorder.wrap(mods, analysis, "run_experiment", "analysis.run_experiment", observe=_observe_run)
    recorder.wrap(mods, analysis, "run_record_csv", "analysis.run_record_csv", observe=_observe_text)
    recorder.wrap(mods, analysis, "run_summary", "analysis.run_summary")
    recorder.wrap(mods, cli, "load_experiment_spec", "cli.load_experiment_spec")
    recorder.wrap(mods, cli, "_dumps", "cli._dumps", observe=_observe_text)
    recorder.wrap(mods, cli, "_write_artifacts", "cli._write_artifacts", observe=_observe_files)


def layer_metrics(recorder, wall: float) -> tuple[dict[str, float], list[float], dict[str, float]]:
    """Per-layer values of one traced invocation, run_experiment's durations
    in ms, and each layer's self time as a share of ``wall``.

    A layer that was never called (or no longer exists) reads 0.
    """
    from spans import summarize

    spans = summarize(recorder.spans)
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    span = lambda name: spans.get(name, empty)  # noqa: E731
    count = lambda name, key: recorder.counters.get(name, {}).get(key, 0)  # noqa: E731
    m: dict[str, float] = {}
    for name in ("plant.generate_sequence", "analysis.estimate_correlations", "analysis.wiener_solution",
                 "analysis.run_record_csv"):
        m[f"{name}.calls"] = span(name)["calls"]
        m[f"{name}.s"] = span(name)["self_s"]
    calls = span("plant.generate_sequence")["calls"]
    m["plant.generate_sequence.rows"] = count("plant.generate_sequence", "rows")
    distinct = len(recorder.counters.get("plant.generate_sequence", {}).get("inputs", ()))
    m["plant.generate_sequence.distinct_share"] = distinct / calls if calls else 0.0
    steps = {k: a for k, a in recorder.aggregates.items() if k.startswith("filters.step.")}
    m["filters.step.calls"] = sum(a.calls for a in steps.values())
    for variant in VARIANTS:
        agg = steps.get(f"filters.step.{variant}")
        m[f"filters.step.{variant}.us_per_step"] = agg.total_s / agg.calls * 1e6 if agg else 0.0
    run = span("analysis.run_experiment")
    m["analysis.run_experiment.calls"] = run["calls"]
    m["analysis.run_experiment.self_s"] = run["self_s"]
    m["analysis.run_experiment.diverged"] = count("analysis.run_experiment", "diverged")
    m["analysis.run_record_csv.bytes"] = count("analysis.run_record_csv", "bytes")
    m["analysis.run_summary.s"] = span("analysis.run_summary")["self_s"]
    m["cli.load_experiment_spec.s"] = span("cli.load_experiment_spec")["self_s"]
    m["cli._dumps.s"] = span("cli._dumps")["self_s"]
    m["cli._dumps.bytes"] = count("cli._dumps", "bytes")
    m["cli._write_artifacts.s"] = span("cli._write_artifacts")["self_s"]
    m["cli._write_artifacts.files"] = count("cli._write_artifacts", "files")
    m["cli._write_artifacts.bytes"] = count("cli._write_artifacts", "bytes")
    shares = {name: row["self_s"] / wall for name, row in spans.items() if name != "cli.load_experiment_spec"}
    shares.update({name: agg.total_s / wall for name, agg in steps.items()})
    shares["other"] = 1.0 - sum(shares.values())
    return m, [d * 1e3 for d in run["durations"]], shares


def run(job: dict) -> dict:
    if job.get("cpu") is not None:
        os.sched_setaffinity(0, {job["cpu"]})
    harxlab = _import_harxlab(Path(job["root"]))
    from harxlab import cli

    import calibrate

    recorder = None
    if job["trace"]:
        from spans import Recorder

        recorder = Recorder()
        install(recorder, harxlab)
    try:
        cli.load_experiment_spec(job["spec"])
        ready = time.perf_counter()
        calibrate.kernel(1000)  # warm-up
        cal_before = calibrate.calibration_s()
        cpu0, t0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(job["argv"])
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        if recorder is not None:
            recorder.restore()
    cal_after = calibrate.calibration_s()
    result = {
        "ready": ready,
        "cal_s": [cal_before, cal_after],
        "wall_s": wall,
        "cpu_s": cpu,
        "exit": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["layers"], result["run_ms"], result["shares"] = layer_metrics(recorder, wall)
        result["absent"] = recorder.absent
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
