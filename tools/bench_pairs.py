"""Run the benchmark on two commits in alternating pairs and record both sides.

Usage, from inside a harxlab git checkout:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs K --seconds S --seed0 N [--out FILE]

PARENT and CHANGE are git revisions (``git stash create`` gives one for
uncommitted work).  Each is exported with ``git archive`` into its own fresh
directory, so neither side finds bytecode or build output from earlier runs.
Pair k runs ``python3 bench/run_bench.py --workload W --seed N+k --seconds S``
in both exports, each side's own unchanged ``bench/``, under
PYTHONDONTWRITEBYTECODE=1; the side that runs first alternates from pair to
pair.  Per end-to-end metric of BENCHMARK.json the result holds each side's
median, quartiles and runs, the pairs the change won (ties count for
neither), the change of the median in percent, and the parent's
interquartile range, read over the pairs in which both runs are correct
and report every metric: a pair with a failed run (say, a seed whose
reference check fails) stays in the record's ``correct`` and ``failed``
fields and in its ``incomplete_seeds``, but not in the metrics.  It is printed as JSON, and with ``--out`` it is also
put into FILE's ``results`` list, replacing an earlier entry of the workload.
After the JSON, one line per metric on standard error gives both medians,
the change in percent, the pairs won and the parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from artifacts_diff import export


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of ``root``'s bench/run_bench.py: its last line of output, parsed."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root}: run_bench.py printed nothing (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def side(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75]).tolist()
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "runs": [round(r, 6) for r in runs]}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides of one metric; ``better`` is ``lower`` or ``higher``."""
    p, c = side(parent), side(change)
    wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": int(wins),
        "median_change_pct": round(100.0 * (c["median"] / p["median"] - 1.0), 2) if p["median"] else None,
        "parent_iqr": round(p["q3"] - p["q1"], 6),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed0", type=int, default=5, help="pair k runs benchmark seed seed0 + k")
    parser.add_argument("--out", help="a BENCH_<n>.json to put the result into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    revs = {name: subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], check=True,
                                 capture_output=True, text=True).stdout.strip()
            for name, rev in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {name: export(rev, Path(tmp) / name) for name, rev in revs.items()}
        spec = json.loads((roots["change"] / "BENCHMARK.json").read_text("utf-8"))
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.seed0 + k
            for name in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                result = run_bench(roots[name], args.workload, seed, args.seconds)
                runs[name].append(result)
                values = {m: v["value"] for m, v in result["metrics"].items()}
                print(f"pair {k} seed {seed} {name}: correct {result['correct']}, failed {result['failed']}, "
                      + ", ".join(f"{m} {v:.6g}" for m, v in values.items()), file=sys.stderr)

    every = runs["parent"] + runs["change"]
    complete = [k for k in range(args.pairs)
                if all(runs[s][k]["correct"] and set(better) <= set(runs[s][k]["metrics"]) for s in runs)]
    entry = {
        "workload": args.workload,
        "seeds": list(range(args.seed0, args.seed0 + args.pairs)),
        "pairs": args.pairs,
        "correct": all(r["correct"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "incomplete_seeds": [args.seed0 + k for k in range(args.pairs) if k not in complete],
        "metrics": {
            name: compare(*([runs[s][k]["metrics"][name]["value"] for k in complete] for s in ("parent", "change")),
                          how)
            for name, how in better.items()
            if complete
        },
    }
    print(json.dumps(entry, indent=1))
    for name, m in entry["metrics"].items():
        pct = "n/a" if m["median_change_pct"] is None else f"{m['median_change_pct']:+.2f}%"
        print(f"{args.workload} {name}: parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} "
              f"({pct}), change better in {m['change_better_pairs']} of {len(complete)} pairs, "
              f"parent IQR {m['parent_iqr']:.6g}", file=sys.stderr)
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text("utf-8")) if out.exists() else {
            "description": "bench/run_bench.py (unchanged) on the parent commit and on the change, in alternating "
                           "pairs from clean exports under PYTHONDONTWRITEBYTECODE=1 (tools/bench_pairs.py)",
            "parent_commit": revs["parent"],
            "command": f"python3 bench/run_bench.py --workload W --seed S --seconds {args.seconds:g}",
            "run_seconds": args.seconds,
            "results": [],
        }
        doc["results"] = [r for r in doc["results"] if r["workload"] != args.workload] + [entry]
        out.write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
