"""Time the correlations layer, the update kernel and the curve CSVs of the benchmark's workloads, warm, in process,
and the import of harxlab.cli, in fresh interpreters.

Usage, from inside a harxlab checkout:

    python3 tools/kernel_timing.py [--root DIR [--root DIR2]] [--workload W ...] [--seed N]
                                   [--repeat K] [--pairs P]

DIR defaults to the checkout beside this script; its ``src/`` is imported and
its ``bench/workloads.py`` read without writing bytecode, and each workload's
spec is written into a temporary directory, so nothing is written into
``bench/``.  Each timing is the median of K timed calls after one warm-up
call.  K defaults to 20, and to 200 for ``sweep``, whose 6 ms batch reads
the wrong way round between two processes at 50 calls.  W is a workload of
``bench/workloads.py`` or ``setup``; the default is every workload, then
``setup``.

- ``simulate`` and ``sweep``: ``analysis.simulate_seeds`` on the spec's
  plant, T and seeds (the simulation, the correlations and every seed's
  Wiener solve), then ``analysis.run_batch`` on the batch the command runs,
  built once from the spec: ``simulate`` runs every filter, keeping curves
  when its ``emit`` writes CSVs; ``sweep --param eta`` runs the grid's
  configs and the 2/lambda_max reference, without curves.  The batch's
  time is also given per step (the longest row's iterations) and per
  row-step (every row's iterations summed).  ``sweep`` also times
  ``analysis.sweep_cells`` on the same configs, the batch and its
  ``seed_aggregate`` cells as ``stability_probe`` takes them, so the time
  beyond ``run_batch`` is what reducing the rows to cells costs.  Where
  the batch keeps curves, the rendering of all its records by
  ``analysis.run_record_csv`` is timed too, each from an empty template
  cache, so that it counts the templates a fresh ``simulate`` builds.
  ``simulate`` then times two more batches on the same data, each of the
  spec's ``mflms_modulus`` config alone, for the factor paths no workload
  takes: ``run_batch_guarded`` with an ``epsilon_guard`` of 0.05 and
  ``run_batch_euclidean`` with the ``euclidean_norm`` reading.
- ``wiener``: ``analysis.stream_correlations`` on the spec's plant and T,
  seeded with its first seed, as ``harxlab wiener`` calls it.
- ``setup``: ``import harxlab; from harxlab import cli`` (``import_cli``),
  the median of K (default 20) fresh interpreters, each of which first
  loads numpy and the standard modules ``bench/worker.py`` imports before
  harxlab.  They run under PYTHONDONTWRITEBYTECODE=1, with one BLAS
  thread as in the benchmark, on a copy of ``src/harxlab`` without
  bytecode, so each compiles harxlab from source as the benchmark's fresh
  checkouts do.

With two ``--root`` options, P pairs (default 5) of fresh processes time the
two checkouts, each process as above on one checkout; the side that runs
first alternates from pair to pair.  Per timing it prints each side's median
over its processes and the median over pairs of the second side's time over
the first's.  This sizes a change to one of these layers before the
end-to-end benchmark does.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from artifacts_diff import workloads

ROOT = Path(__file__).resolve().parent.parent
REPEAT = {"simulate": 20, "sweep": 200, "wiener": 20, "setup": 20}  # the default K per command, and for setup
# what a fresh interpreter runs for `setup import_cli`: bench/worker.py's imports before harxlab, then the timed import
IMPORT_CLI = """\
import contextlib, hashlib, io, json, os, resource, sys, time
from pathlib import Path
import numpy
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import harxlab
from harxlab import cli
print(time.perf_counter() - t)
"""


def median_s(call, repeat: int) -> float:
    """The median wall time of ``repeat`` calls of ``call``, after one untimed call."""
    call()
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def batch_of(workload, spec, data):
    """The configs and the curves switch of the one batch ``workload``'s command runs on ``data``."""
    if workload.command == "simulate":
        return [cfg for _, cfg in spec.filters], spec.emit in ("curves", "both")
    etas = [*workload.grid, 2.0 / float(data.lambda_max[0])]  # as analysis.stability_probe builds them
    return [replace(spec.filters[0][1], eta=eta) for eta in etas], False


def time_workload(workload, seed: int, repeat: int | None, analysis, cli) -> list[str]:
    repeat = repeat or REPEAT[workload.command]
    with tempfile.TemporaryDirectory(prefix="kernel_timing_") as tmp:
        spec = cli.load_experiment_spec(workload.write_inputs(seed, Path(tmp)))
    if workload.command == "wiener":
        stream = lambda: analysis.stream_correlations(  # noqa: E731
            spec.plant, spec.input_kind, T=spec.T, rng=np.random.default_rng(spec.seeds[0]))
        t = median_s(stream, repeat)
        return [f"{workload.name}  stream_correlations  {t * 1e3:.3f} ms  (T {spec.T}, median of {repeat})"]
    simulate = lambda: analysis.simulate_seeds(spec.plant, spec.T, spec.seeds, spec.input_kind)  # noqa: E731
    data = simulate()
    t = median_s(simulate, repeat)
    lines = [f"{workload.name}  simulate_seeds  {t * 1e3:.3f} ms  (T {spec.T}, {len(spec.seeds)} seeds, "
             f"median of {repeat})"]
    cfgs, curves = batch_of(workload, spec, data)

    def time_batch(timing, batch):
        run = lambda: analysis.run_batch(batch, data.X, data.outputs, data.omega, curves=curves)  # noqa: E731
        result = run()
        if isinstance(result, tuple):  # tally, records[c][s] (None without curves)
            iterations = result[0].iterations.tolist()
            records = [rec for runs in result[1] or () for rec in runs]
        else:  # a checkout whose run_batch returns records[c][s], or summary dicts without curves
            records = [rec for runs in result for rec in runs]
            iterations = [(rec.summary if curves else rec)["iterations"] for rec in records]
        t = median_s(run, repeat)
        steps, row_steps = max(iterations), sum(iterations)
        lines.append(
            f"{workload.name}  {timing}  {t * 1e3:.3f} ms  rows {len(iterations)}  steps {steps}  "
            f"{t / steps * 1e6:.3f} us/step  {t / row_steps * 1e6:.4f} us/row-step  (median of {repeat})"
        )
        return records

    records = time_batch("run_batch", cfgs)
    if workload.command == "sweep":
        t = median_s(lambda: analysis.sweep_cells(cfgs, data), repeat)
        lines.append(f"{workload.name}  sweep_cells  {t * 1e3:.3f} ms  ({len(cfgs)} cells, median of {repeat})")
    if curves:
        def render():
            analysis._csv_template.cache_clear()
            return [analysis.run_record_csv(rec) for rec in records]

        t = median_s(render, repeat)
        lines.append(f"{workload.name}  run_record_csv  {t * 1e3:.3f} ms  ({len(records)} CSVs, median of {repeat})")
    if workload.command == "simulate":  # the factor paths no workload takes, on the modulus config
        modulus = next(cfg for cfg in cfgs if cfg.variant == "mflms_modulus")
        time_batch("run_batch_guarded", [replace(modulus, epsilon_guard=0.05)])
        time_batch("run_batch_euclidean", [replace(modulus, power_interpretation="euclidean_norm")])
    return lines


def time_setup(root: Path, repeat: int | None) -> list[str]:
    """The median time of importing ``root``'s harxlab.cli in ``repeat`` fresh interpreters (IMPORT_CLI)."""
    repeat = repeat or REPEAT["setup"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
    with tempfile.TemporaryDirectory(prefix="kernel_timing_") as tmp:
        shutil.copytree(root / "src" / "harxlab", Path(tmp) / "harxlab", ignore=shutil.ignore_patterns("__pycache__"))
        times = [float(subprocess.run([sys.executable, "-c", IMPORT_CLI, tmp], env=env, check=True,
                                      capture_output=True, text=True).stdout) for _ in range(repeat)]
    return [f"setup  import_cli  {statistics.median(times) * 1e3:.3f} ms  "
            f"(median of {repeat} fresh interpreters)"]


def time_in_process(root: Path, names, seed: int, repeat: int | None) -> None:
    """Print the timings of ``names`` on the checkout at ``root``, imported into this process."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root.resolve() / "src"))
    from harxlab import analysis, cli

    by_name = workloads(root)
    print(f"harxlab from {Path(analysis.__file__).parent}, seed {seed}")
    for name in names or [*by_name, "setup"]:
        lines = time_setup(root, repeat) if name == "setup" else time_workload(
            by_name[name], seed, repeat, analysis, cli)
        for line in lines:
            print(line)


def time_pairs(roots, names, seed: int, repeat: int | None, pairs: int) -> None:
    """Time the two checkouts ``roots`` in ``pairs`` alternating pairs of fresh processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed)]
    argv += [arg for name in names or () for arg in ("--workload", name)]
    argv += ["--repeat", str(repeat)] if repeat else []
    times = [{}, {}]  # per side: (workload, timing) -> the milliseconds of each of its processes
    for k in range(pairs):
        for i in (0, 1) if k % 2 == 0 else (1, 0):
            out = subprocess.run([*argv, "--root", str(roots[i])], check=True, capture_output=True, text=True)
            for line in out.stdout.splitlines()[1:]:
                workload, timing, ms = line.split()[:3]
                times[i].setdefault((workload, timing), []).append(float(ms))
    print(f"A = {roots[0]}\nB = {roots[1]}\n{pairs} pairs, seed {seed}")
    for key, a in times[0].items():
        b = times[1][key]
        ratio = statistics.median(y / x for x, y in zip(a, b))
        print(f"{key[0]}  {key[1]}  A {statistics.median(a):.3f} ms  B {statistics.median(b):.3f} ms  "
              f"B/A {ratio:.4f}  (B faster in {sum(y < x for x, y in zip(a, b))} of {pairs})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="a harxlab checkout to time; give two to compare them (default: this one)")
    parser.add_argument("--workload", action="append",
                        help="a workload name or setup; repeatable (default: every workload, then setup)")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed")
    parser.add_argument("--repeat", type=int,
                        help="timed calls or interpreters per median (default: 20, 200 for sweep)")
    parser.add_argument("--pairs", type=int, default=5, help="process pairs with two --root options")
    args = parser.parse_args(argv)
    roots = args.root or [ROOT]
    if len(roots) > 2:
        parser.error("at most two --root options")
    if len(roots) == 2:
        time_pairs(roots, args.workload, args.seed, args.repeat, args.pairs)
    else:
        time_in_process(roots[0], args.workload, args.seed, args.repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
