"""Smoke tests of the measuring scripts in tools/: each runs and prints the lines other tools and the docs read;
and the pure functions that turn two sides' runs and artifacts into the numbers of every BENCH_*.json."""

import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    """tools/<name>.py, imported by its path."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # bench_pairs imports artifacts_diff by this name
    spec.loader.exec_module(module)
    return module


artifacts_diff = load_tool("artifacts_diff")
bench_pairs = load_tool("bench_pairs")


def run_tool(*argv: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(TOOLS / argv[0]), *argv[1:]], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_code_lines_prints_the_package_total():
    total = re.fullmatch(r"total\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)", run_tool("code_lines.py")[-1])
    assert total
    code, docstring, comment, blank, lines = map(int, total.groups())
    assert code > 0 and code + docstring + comment + blank == lines


def test_kernel_timing_times_the_seed_layer_and_the_kernel():
    timings = {}
    for line in run_tool("kernel_timing.py", "--workload", "sweep_many_seeds", "--repeat", "1")[1:]:
        workload, timing, ms, unit = line.split()[:4]
        assert workload == "sweep_many_seeds" and unit == "ms", line
        timings[timing] = float(ms)
    assert set(timings) == {"simulate_seeds", "run_batch", "sweep_cells"}
    assert all(ms > 0.0 for ms in timings.values())


def test_kernel_timing_times_the_factor_paths_no_workload_takes():
    timings = {}
    for line in run_tool("kernel_timing.py", "--workload", "simulate_long", "--repeat", "1")[1:]:
        workload, timing, ms, unit = line.split()[:4]
        assert workload == "simulate_long" and unit == "ms", line
        timings[timing] = float(ms)
    assert list(timings) == ["simulate_seeds", "run_batch", "run_record_csv", "run_batch_guarded",
                             "run_batch_euclidean"]
    assert all(ms > 0.0 for ms in timings.values())


def test_kernel_timing_times_the_import_of_the_cli_in_a_fresh_interpreter():
    lines = run_tool("kernel_timing.py", "--workload", "setup", "--repeat", "1")[1:]
    assert len(lines) == 1
    workload, timing, ms, unit = lines[0].split()[:4]
    assert (workload, timing, unit) == ("setup", "import_cli", "ms") and float(ms) > 0.0
    assert lines[0].endswith("(median of 1 fresh interpreters)")


def test_bench_pairs_side_gives_quartiles_and_rounded_runs():
    assert bench_pairs.side([4.0, 1.0, 3.0, 2.0, 1.0000004]) == {
        "median": 2.0, "q1": 1.0, "q3": 3.0, "runs": [4.0, 1.0, 3.0, 2.0, 1.0]}


def test_bench_pairs_compare_counts_wins_but_not_ties():
    # pairs 0 and 2 tie; pair 1 goes to the lower side, pairs 3 and 4 to the higher
    parent, change = [1.0, 2.0, 3.0, 4.0, 1.0], [1.0, 1.5, 3.0, 5.0, 2.0]
    lower, higher = (bench_pairs.compare(parent, change, better) for better in ("lower", "higher"))
    assert (lower["change_better_pairs"], higher["change_better_pairs"]) == (1, 2)
    for result in (lower, higher):
        assert result["parent"] == bench_pairs.side(parent) and result["change"] == bench_pairs.side(change)
        assert result["parent"]["median"] == 2.0 and result["change"]["median"] == 2.0
        assert result["median_change_pct"] == 0.0 and result["parent_iqr"] == 2.0
    assert bench_pairs.compare([2.0, 2.0, 2.0], [2.5, 2.5, 1.0], "higher")["median_change_pct"] == 25.0


def test_bench_pairs_compare_has_no_percent_for_a_zero_parent_median():
    result = bench_pairs.compare([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], "lower")
    assert result["parent"]["median"] == 0.0 and result["median_change_pct"] is None
    assert result["change_better_pairs"] == 0


def test_artifacts_diff_relative_difference():
    assert artifacts_diff.relative_difference("1.0", "1.00") == 0.0
    assert artifacts_diff.relative_difference("nan", "nan") == 0.0
    assert artifacts_diff.relative_difference("2", "-2") == 2.0
    assert artifacts_diff.relative_difference("1.0", "1.25") == 0.2
    assert artifacts_diff.relative_difference("inf", "inf") == 0.0
    assert artifacts_diff.relative_difference("nan", "1") == artifacts_diff.relative_difference("1", "-inf") == math.inf


@pytest.mark.parametrize("parent, change, verdict", [
    (b"iter,mse\n1,0.5\n", b"iter,mse\n1,0.5\n", "identical"),
    (b"iter,mse\n1,0.5\n2,1e-3\n", b"iter,mse\n1,0.55\n2,1e-3\n", "largest relative difference 0.0909"),
    (b"iter,mse\n1,nan\n2,1.0\n", b"iter,mse\n1,nan\n2,1.00\n", "largest relative difference 0"),
    (b'{"diverged": false, "mse": 1}', b'{"diverged": true, "mse": 1}', "text differs"),
    (b"a,1\n", b"a,1\nb,2\n", "text differs"),
    (b"iter,mse\n1,0.5\n2,2.0\n", b"iter,mse\n1,0.5\n2,nan\n", "largest relative difference inf"),
], ids=["identical", "numeric", "nan_both_sides", "text", "extra_row", "nan_one_side"])
def test_artifacts_diff_compare(parent, change, verdict):
    assert artifacts_diff.compare(parent, change) == verdict
