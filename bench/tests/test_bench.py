"""Self-tests of the benchmark: span arithmetic, the checker, and the tracer's clean-up.

Run from the checkout root: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from run_bench import end_to_end, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_of_a_synthetic_nested_trace():
    trace = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("a.inner", 2.0, 3.0, parent=1),
        spans.Span("b", 5.0, 9.0, parent=0, aggregated_child_s=2.0),
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 2.0]
    summary = spans.summarize(trace)
    assert summary["root"] == {"calls": 1, "self_s": 3.0, "durations": [10.0]}


def test_recorder_nests_spans_and_aggregates_hot_calls():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x
    mod.hot = lambda x: x
    mod.outer = lambda: mod.hot(1) + mod.hot(2) + mod.leaf(3)
    rec.wrap([mod], mod, "leaf", "leaf")
    rec.wrap([mod], mod, "hot", "hot", aggregate=lambda args: "hot")
    rec.wrap([mod], mod, "outer", "outer")
    assert mod.outer() == 6
    # outer: 0..7; hot: 1..2 and 3..4; leaf: 5..6
    assert rec.aggregates["hot"].calls == 2 and rec.aggregates["hot"].total_s == 2.0
    summary = spans.summarize(rec.spans)
    assert summary["outer"]["self_s"] == 7.0 - 2.0 - 1.0
    assert summary["leaf"]["self_s"] == 1.0


def test_missing_wrap_target_is_reported_absent():
    rec = spans.Recorder()
    mod = types.SimpleNamespace()
    rec.wrap([mod], mod, "step", "filters.step", aggregate=lambda args: "x")
    assert rec.absent == ["filters.step"]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    samples = list(range(24))
    value, pct, n = tail_percentile(samples)
    assert (n, pct) == (24, 58.0)
    assert sum(s > value for s in samples) >= 10
    assert tail_percentile([1.0, 2.0, 3.0])[1:] == (50.0, 3)


def test_end_to_end_times_are_normalized_by_the_calibration_kernel():
    # the same invocation on a host twice as slow: every time doubles, and so does the calibration
    fast = {"setup_s": 0.2, "wall_s": 1.0, "cpu_s": 0.9, "cal_s": [REFERENCE_S, REFERENCE_S], "peak_rss_mb": 40.0}
    slow = {**fast, "setup_s": 0.4, "wall_s": 2.0, "cpu_s": 1.8, "cal_s": [1.5 * REFERENCE_S, 2.5 * REFERENCE_S]}
    assert end_to_end([fast], 100) == pytest.approx(end_to_end([slow], 100))
    assert end_to_end([slow, fast, slow], 100) == pytest.approx(
        {"setup_s": 0.2, "norm_wall_s": 1.0, "norm_cpu_s": 0.9, "norm_items_per_s": 100.0, "peak_rss_mb": 40.0}
    )


@pytest.fixture(scope="module")
def small_simulate(tmp_path_factory):
    """A short simulate_long run by harxlab itself, and the model's expectation."""
    from harxlab import cli

    w = replace(WORKLOADS["simulate_long"], T=300, n_seeds=1)
    workdir = tmp_path_factory.mktemp("simulate")
    spec = w.write_inputs(7, workdir)
    assert cli.main(w.argv(spec, workdir / "out")) == 0
    want, items = reference.expected(w, 7)
    assert items == 4 * (300 - 3)
    return w, workdir / "out", want, {name: p["variant"] for name, p in w.filters}


def test_checker_accepts_the_programs_output(small_simulate):
    w, out, want, variants = small_simulate
    assert len(want) == 4 * 2  # one curve CSV and one summary per filter
    assert check.check_artifacts(out, want, variants) == []


def test_checker_rejects_one_perturbed_cell(small_simulate, tmp_path):
    _, out, want, variants = small_simulate
    for p in out.iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    path = tmp_path / "momentum_seed7001.csv"
    lines = path.read_text().split("\n")
    i, mse, werr, imag = lines[100].split(",")
    lines[100] = ",".join([i, mse, repr(float(werr) * (1 + 1e-6)), imag])
    path.write_text("\n".join(lines))
    errors = check.check_artifacts(tmp_path, want, variants)
    assert len(errors) == 1 and "momentum_seed7001.csv: row 99 col 2" in errors[0]


def test_checker_rejects_a_flipped_diverged_flag(small_simulate, tmp_path):
    _, out, want, variants = small_simulate
    for p in out.iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    path = tmp_path / "lms_summary.json"
    doc = json.loads(path.read_text())
    doc["per_seed"][0]["diverged"] = not doc["per_seed"][0]["diverged"]
    path.write_text(json.dumps(doc))
    errors = check.check_artifacts(tmp_path, want, variants)
    assert errors == ["lms_summary.json.per_seed[0].diverged: True != False (exact)"]


def test_checker_rejects_a_missing_artifact(small_simulate):
    _, out, want, variants = small_simulate
    errors = check.check_artifacts(out, {**want, "extra.csv": np.zeros((0, 4))}, variants)
    assert errors and errors[0].startswith("artifact set: missing ['extra.csv']")


def test_module_attributes_are_restored_after_a_traced_run(tmp_path):
    import harxlab
    from harxlab import analysis, cli, filters, plant

    mods = (harxlab, plant, filters, analysis, cli)
    before = [dict(vars(m)) for m in mods]
    w = replace(WORKLOADS["sweep_many_seeds"], T=60, n_seeds=3)
    spec = w.write_inputs(0, tmp_path)
    (tmp_path / "out").mkdir()
    job = {"root": str(ROOT), "spec": str(spec), "argv": w.argv(spec, tmp_path / "out"), "trace": True}
    result = worker.run(job)
    assert result["exit"] == 0 and result["absent"] == []
    layers = result["layers"]
    assert layers["analysis.run_experiment.calls"] == 3 * (len(w.grid) + 1)
    assert layers["filters.step.calls"] > 0 and layers["filters.step.flms_signed.us_per_step"] > 0
    assert layers["plant.generate_sequence.distinct_share"] == 3 / (3 * (len(w.grid) + 1) + 1)
    after = [dict(vars(m)) for m in mods]
    for b, a in zip(before, after):
        assert a.keys() == b.keys()
        assert all(a[k] is b[k] for k in b)
