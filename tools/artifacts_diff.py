"""Compare the artifacts of the benchmark's command lines on two commits.

Usage, from inside a harxlab git checkout:

    python3 tools/artifacts_diff.py PARENT CHANGE [--seeds 1,2,3]

PARENT and CHANGE are git revisions (``git stash create`` gives one for
uncommitted work).  Each is exported with ``git archive`` into its own fresh
directory.  For every benchmark seed and every workload of the export's own
``bench/workloads.py``, the workload's spec is written into a work directory
outside ``bench/``, and its ``harxlab`` command line runs in a fresh
interpreter on the export's ``src/`` under PYTHONDONTWRITEBYTECODE=1.  Per
artifact it prints ``identical``, or the largest relative difference of the
numbers in the two files, or ``text differs`` when they differ in more than
their numbers.  It exits 1 when a command fails or the two sides write
different sets of files, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def export(rev: str, directory: Path) -> Path:
    """Extract the tree of ``rev`` into ``directory``; returns it."""
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return directory


def workloads(root: Path) -> dict:
    """The WORKLOADS of ``root``'s bench/workloads.py, imported without writing bytecode."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(f"workloads_{root.name}", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run(root: Path, workload, seed: int, workdir: Path) -> dict[str, bytes]:
    """Run one workload at one seed on ``root``; returns its artifacts by name."""
    spec = workload.write_inputs(seed, workdir)
    outdir = workdir / "out"
    outdir.mkdir()
    env = {key: value for key, value in os.environ.items() if key != "HARXLAB_OUTDIR"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-m", "harxlab.cli", *workload.argv(spec, outdir)]
    proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root.name}: {' '.join(argv[3:])} exited {proc.returncode}:\n{proc.stderr}")
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def relative_difference(a: str, b: str) -> float:
    """0 for equal numbers (NaN on both sides included), inf where only one side is NaN or infinite."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf  # the quotient would be NaN, which max() skips unless it comes first
    return abs(x - y) / max(abs(x), abs(y))


def compare(parent: bytes, change: bytes) -> str:
    """``identical``, the largest relative difference of the numbers, or ``text differs``."""
    if parent == change:
        return "identical"
    a, b = parent.decode("utf-8"), change.decode("utf-8")
    if NUMBER.split(a) != NUMBER.split(b):
        return "text differs"
    worst = max(relative_difference(x, y) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)))
    return f"largest relative difference {worst:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the change side")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated benchmark seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    same = True
    with tempfile.TemporaryDirectory(prefix="artifacts_diff_") as tmp:
        revs = (("parent", args.parent), ("change", args.change))
        roots = {name: export(rev, Path(tmp) / name) for name, rev in revs}
        sides = {name: workloads(root) for name, root in roots.items()}
        names = sorted(set(sides["parent"]) | set(sides["change"]))
        for seed in seeds:
            for name in names:
                files = {
                    side: run(roots[side], sides[side][name], seed, Path(tmp) / f"{side}-{name}-{seed}")
                    if name in sides[side] else {}
                    for side in roots
                }
                if set(files["parent"]) != set(files["change"]):
                    same = False
                    print(f"seed {seed} {name}: file sets differ: parent {sorted(files['parent'])}, "
                          f"change {sorted(files['change'])}")
                for artifact in sorted(set(files["parent"]) & set(files["change"])):
                    verdict = compare(files["parent"][artifact], files["change"][artifact])
                    print(f"seed {seed} {name}/{artifact}: {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
