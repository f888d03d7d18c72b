"""Time the update kernel and the curve CSVs of the benchmark's workloads, warm, in process.

Usage, from inside a harxlab checkout:

    python3 tools/kernel_timing.py [--root DIR] [--workload W ...] [--seed N] [--repeat K]

DIR defaults to the checkout beside this script; its ``src/`` is imported and
its ``bench/workloads.py`` read without writing bytecode, and each workload's
spec is written into a temporary directory, so nothing is written into
``bench/``.  For each workload that runs filters, the batch its command runs
is built once from the spec: ``simulate`` runs every filter, keeping curves
when its ``emit`` writes CSVs; ``sweep --param eta`` runs the grid's configs
and the 2/lambda_max reference, without curves.  One warm-up call, then K
timed calls of ``analysis.run_batch`` give the median, also per step (the
longest row's iterations) and per row-step (every row's iterations summed).
Where the batch keeps curves, the median of K renderings of all its records
by ``analysis.run_record_csv`` is printed too.  ``wiener`` runs no filter and
is skipped.  Run it on two checkouts to size a kernel change before the
end-to-end benchmark does.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def time_workload(workload, seed: int, repeat: int, analysis, cli) -> list[str]:
    with tempfile.TemporaryDirectory(prefix="kernel_timing_") as tmp:
        spec = cli.load_experiment_spec(workload.write_inputs(seed, Path(tmp)))
    data = analysis.simulate_seeds(spec.plant, spec.T, spec.seeds, spec.input_kind)
    cfgs, curves = batch_of(workload, spec, data)
    run = lambda: analysis.run_batch(cfgs, data.X, data.outputs, data.omega, curves=curves)  # noqa: E731
    batch = run()
    records = [rec for runs in batch for rec in runs]
    iterations = [(rec.summary if curves else rec)["iterations"] for rec in records]
    t = median_s(run, repeat)
    steps, row_steps = max(iterations), sum(iterations)
    lines = [
        f"{workload.name}  run_batch  {t * 1e3:.2f} ms  rows {len(records)}  steps {steps}  "
        f"{t / steps * 1e6:.3f} us/step  {t / row_steps * 1e6:.4f} us/row-step"
    ]
    if curves:
        t = median_s(lambda: [analysis.run_record_csv(rec) for rec in records], repeat)
        lines.append(f"{workload.name}  run_record_csv  {t * 1e3:.2f} ms  ({len(records)} CSVs)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="the harxlab checkout to time")
    parser.add_argument("--workload", action="append", help="a workload name; repeatable (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed")
    parser.add_argument("--repeat", type=int, default=20, help="timed calls per median")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from harxlab import analysis, cli

    spec = importlib.util.spec_from_file_location("bench_workloads", args.root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    names = args.workload or list(module.WORKLOADS)
    print(f"harxlab from {Path(analysis.__file__).parent}, seed {args.seed}, median of {args.repeat}")
    for name in names:
        workload = module.WORKLOADS[name]
        if workload.command == "wiener":
            print(f"{name}  runs no filter")
            continue
        for line in time_workload(workload, args.seed, args.repeat, analysis, cli):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
