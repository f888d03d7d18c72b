"""harxlab benchmark: run one workload repeatedly, check it, print its metrics.

Usage, from the root of a harxlab checkout:

    python3 bench/run_bench.py --workload simulate_long [--seed 1] [--seconds 35] [--trace 0|1]

Each invocation of the workload runs in a fresh interpreter (bench/worker.py),
one at a time, with BLAS pools pinned to one thread.  Invocations repeat
until ``--seconds`` have passed (at least three); ``end_to_end`` says how
their figures are combined.  Every invocation is checked: its exit code, its
artifact set, and its artifacts against the reference model
(bench/reference.py), which is recomputed for the seed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, with the
end-to-end metrics of BENCHMARK.json for ``--trace 0`` and its per-layer
metrics for ``--trace 1``.  A traced run alternates plain and traced
invocations, so it also reports the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every worker

import argparse
import contextlib
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_S
from check import check_artifacts, hash_files
from reference import expected
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
MIN_REPS = 3
MAX_MEASURE_S = 120.0  # stop repeating past this, so a run ends within 180 s
REP_TIMEOUT_S = 150.0


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) for the highest whole percentile with at least
    ten samples above it; the median when there are twenty samples or fewer."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    pct = math.floor(100.0 * (n - 10) / n) if n > 20 else 50
    return float(np.percentile(samples, pct)), float(pct), n


class Invoker:
    """Runs and checks single invocations of one workload for one seed."""

    def __init__(self, root: Path, workload, seed: int, workdir: Path):
        self.root, self.workload, self.seed = root, workload, seed
        self.spec = workload.write_inputs(seed, workdir)
        self.outdir = workdir / "out"
        self.expected, self.items = expected(workload, seed)
        self.variants = {name: params["variant"] for name, params in workload.filters}
        self.good_digest = None
        self.cpus = sorted(os.sched_getaffinity(0))
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def __call__(self, trace: bool) -> dict | None:
        """One invocation; its measurements, or None when it failed."""
        job = {
            "root": str(self.root),
            "spec": str(self.spec),
            "argv": self.workload.argv(self.spec, self.outdir),
            "trace": trace,
            # change CPU every two invocations, so plain and traced ones see each CPU
            "cpu": self.cpus[(self.attempted // 2) % len(self.cpus)],
        }
        self.attempted += 1
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                capture_output=True,
                text=True,
                timeout=REP_TIMEOUT_S,
                cwd=self.root,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"invocation exceeded {REP_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if result["exit"] != 0:
            return self._fail(f"harxlab exited {result['exit']}")
        digest = hash_files(self.outdir)
        if digest != self.good_digest:
            errors = check_artifacts(self.outdir, self.expected, self.variants)
            if errors:
                return self._fail("; ".join(errors[:10]))
            self.good_digest = digest
        result["setup_s"] = result["ready"] - spawned
        return result

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)
        return None


def measure(invoke: Invoker, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Invoke until ``seconds`` have passed; traced runs alternate plain and traced."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(plain) >= MIN_REPS and (len(traced) >= MIN_REPS or not trace)
        if (enough and elapsed >= seconds) or elapsed >= MAX_MEASURE_S or invoke.failed > 2:
            return plain, traced
        tracing = trace and i % 2 == 1
        result = invoke(tracing)
        if result is not None:
            (traced if tracing else plain).append(result)
        i += 1


def normalized(r: dict, key: str) -> float:
    """An invocation's time ``key``, rescaled to the host speed at which the
    calibration kernel takes ``REFERENCE_S`` (see calibrate.py)."""
    return r[key] / statistics.fmean(r["cal_s"]) * REFERENCE_S


def end_to_end(plain: list[dict], items: int) -> dict[str, float]:
    """Medians over the invocations; every time is normalized by the
    calibration kernel timed in the same invocation.  Other tenants of a
    shared host slow the program and the kernel alike, in bursts shorter
    than one invocation and in phases longer than a whole run, so the
    fastest invocation, or the raw median, moves with their load."""
    wall = statistics.median(normalized(r, "wall_s") for r in plain)
    return {
        "setup_s": statistics.median(normalized(r, "setup_s") for r in plain),
        "norm_wall_s": wall,
        "norm_cpu_s": statistics.median(normalized(r, "cpu_s") for r in plain),
        "norm_items_per_s": items / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    run_ms = [ms for r in traced for ms in r["run_ms"]]
    value, pct, n = tail_percentile(run_ms)
    layers["analysis.run_experiment.ms_p50"] = float(np.median(run_ms)) if run_ms else 0.0
    layers["analysis.run_experiment.ms_tail"] = value
    layers["analysis.run_experiment.ms_tail.pct"] = pct
    layers["analysis.run_experiment.ms_tail.n"] = n
    wall = lambda runs: statistics.median(normalized(r, "wall_s") for r in runs)  # noqa: E731
    layers["trace.overhead_s"] = wall(traced) - wall(plain)
    return layers


def layer_shares(traced: list[dict]) -> dict[str, float]:
    """Median share of the traced wall time of cli.main spent in each layer's own code."""
    return {k: round(statistics.median(r["shares"].get(k, 0.0) for r in traced), 4) for k in traced[0]["shares"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # SIGTERM unwinds like Ctrl-C: subprocess.run kills and reaps the running
    # worker, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "harxlab" / "__init__.py").is_file():
        print(f"error: {root} holds no harxlab sources (src/harxlab); run from a checkout root", file=sys.stderr)
        return 2
    names = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
    wanted = {m["name"]: m["unit"] for m in names["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    workdir = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        invoke = Invoker(root, workload, args.seed, workdir)
        plain, traced = measure(invoke, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for why in invoke.errors:
        print(f"FAILED: {why}", file=sys.stderr)
    print(f"{workload.name}: seed {args.seed}, {invoke.attempted} invocations, {invoke.failed} failed, "
          f"error_rate {invoke.failed / invoke.attempted:.4g}, {invoke.items} work items each")
    if not plain or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": invoke.attempted, "failed": invoke.failed, "metrics": {}}))
        return 1
    print("  wall_s/calibration_s per plain invocation: "
          + " ".join(f"{r['wall_s']:.3f}/{statistics.fmean(r['cal_s']):.3f}" for r in plain))
    values = per_layer(plain, traced) if args.trace else end_to_end(plain, invoke.items)
    if set(values) != set(wanted):
        raise SystemExit(f"metric names drifted from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}")
    for name, value in values.items():
        print(f"  {name:48s} {value:.6g} {wanted[name]}")
    if args.trace:
        print("  layer shares of traced wall_s: " + json.dumps(layer_shares(traced), sort_keys=True))
    metrics = {name: {"value": values[name], "unit": wanted[name]} for name in wanted}
    correct = invoke.failed == 0
    print(json.dumps({"correct": correct, "attempted": invoke.attempted, "failed": invoke.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
