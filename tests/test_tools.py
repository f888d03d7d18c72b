"""Smoke tests of the measuring scripts in tools/: each runs and prints the lines other tools and the docs read."""

import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


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
    assert set(timings) == {"simulate_seeds", "run_batch"}
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
