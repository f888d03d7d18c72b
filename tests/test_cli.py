import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harxlab import analysis, cli
from harxlab.filters import VARIANT_FIELDS, VARIANTS, FilterConfig, initial_state
from harxlab.plant import generate_sequence, load_scenario

SCENARIO = """\
m = 3
l = 1
basis = polynomial
q = 0.6, 0.3, 0.1
c = 1.0
noise_std = 0.01
seed = 3
"""

SPEC = """\
[experiment]
plant = lin.scenario
T = 300
seeds = 1, 2, 3
outputs = out
emit = both

[filter lms_small]
variant = lms
eta = 0.05

[filter mom]
variant = momentum_lms
eta = 0.05
beta = 0.4
"""


def write_spec(tmp_path, spec_text=SPEC, scenario_text=SCENARIO):
    (tmp_path / "lin.scenario").write_text(scenario_text, encoding="utf-8")
    spec = tmp_path / "run.spec"
    spec.write_text(spec_text, encoding="utf-8")
    return spec


def fresh_python(*args, env=None):
    """Run ``python *args`` in a fresh interpreter on this checkout's package.

    ``env`` is the child's environment (default: this process's), to which
    the checkout's ``src`` is prepended on ``PYTHONPATH``.
    """
    env = dict(os.environ if env is None else env)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def python_m_cli(*argv):
    """Run ``python -m harxlab.cli *argv`` in a fresh interpreter on this checkout's package."""
    return fresh_python("-m", "harxlab.cli", *argv)


def read_artifacts(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_artifact_counts(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert cli.main(["simulate", str(spec)]) == 0
    outdir = tmp_path / "out"
    names = sorted(p.name for p in outdir.iterdir())
    csvs = [n for n in names if n.endswith(".csv")]
    summaries = [n for n in names if n.endswith("_summary.json")]
    assert len(csvs) == 6  # 2 configs x 3 seeds
    assert len(summaries) == 2
    doc = json.loads((outdir / "lms_small_summary.json").read_text())
    assert doc["aggregate"]["diverged_count"] == 0
    assert len(doc["per_seed"]) == 3
    assert doc["config"]["variant"] == "lms"


def test_simulate_all_seeds_diverged_aggregate(tmp_path):
    spec = write_spec(tmp_path, SPEC.replace("eta = 0.05\n\n", "eta = 50.0\n\n"))  # lms_small diverges
    assert cli.main(["simulate", str(spec)]) == 0
    aggregate = json.loads((tmp_path / "out" / "lms_small_summary.json").read_text())["aggregate"]
    assert aggregate["diverged_count"] == 3
    for key in ("terminal_mse_mean", "terminal_weight_error_mean", "terminal_weight_error_max"):
        assert aggregate[key] is None
    assert sorted(aggregate) == sorted(
        ("diverged_count", "terminal_mse_mean", "terminal_weight_error_mean", "terminal_weight_error_max",
         "leak_fraction_mean", "max_imag")
    )


def test_simulate_validation_exit_2_names_field(tmp_path, capsys):
    spec = write_spec(tmp_path, SPEC.replace("T = 300", "T = 3"))
    assert cli.main(["simulate", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "T" in err and ":3:" in err  # line-anchored, names the field
    assert not (tmp_path / "out").exists()  # nothing written on failure


def test_simulate_byte_identical_reruns(tmp_path):
    spec = write_spec(tmp_path)
    assert cli.main(["simulate", str(spec)]) == 0
    first = read_artifacts(tmp_path / "out")
    assert cli.main(["simulate", str(spec)]) == 0
    second = read_artifacts(tmp_path / "out")
    assert first == second
    assert all(b"\r" not in content for content in first.values())


def test_simulate_fail_on_diverge(tmp_path):
    diverging = SPEC.replace("eta = 0.05\n\n[filter mom]", "eta = 40.0\n\n[filter mom]")
    spec = write_spec(tmp_path, diverging)
    assert cli.main(["simulate", str(spec)]) == 0  # without the flag: artifacts, exit 0
    assert cli.main(["simulate", str(spec), "--fail-on-diverge"]) == 3


def test_simulate_emit_modes(tmp_path):
    spec = write_spec(tmp_path, SPEC.replace("emit = both", "emit = curves"))
    assert cli.main(["simulate", str(spec)]) == 0
    names = [p.name for p in (tmp_path / "out").iterdir()]
    assert all(n.endswith(".csv") for n in names)


def test_simulate_outdir_env_override(tmp_path, monkeypatch):
    spec = write_spec(tmp_path)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv(cli.OUTDIR_ENV, str(override))
    assert cli.main(["simulate", str(spec)]) == 0
    assert override.exists() and not (tmp_path / "out").exists()


def test_spec_parse_errors(tmp_path, capsys):
    bad = [
        ("[experiment]\nT = 10\n\n[filter f]\nvariant = lms\neta = 0.1\n", "missing required key"),
        ("key = 1\n", "outside any"),
        (SPEC.replace("seeds = 1, 2, 3", "seeds = 1, 1"), "distinct"),
        (SPEC.replace("variant = lms", "variant = rls"), "variant"),
        (SPEC + "\n[filter lms_small]\nvariant = lms\neta = 0.1\n", "duplicate filter"),
        (SPEC.replace("eta = 0.05\n\n[filter mom]", "eta = 0.05\nbogus = 1\n\n[filter mom]"), "unknown key"),
    ]
    # each illegal filter field is reported on its own line
    good = {"variant": "mflms_modulus", "eta": "0.05", "beta": "0.2", "v": "0.5",
            "power_interpretation": "elementwise_abs", "epsilon_guard": "0.1"}
    illegal = {"eta": "0", "beta": "1.0", "v": "1.5", "power_interpretation": "bogus", "epsilon_guard": "-1"}
    for field, value in illegal.items():
        text = SPEC + "\n[filter extra]\n" + "".join(f"{k} = {v}\n" for k, v in {**good, field: value}.items())
        line = text.splitlines().index(f"{field} = {value}") + 1
        bad.append((text, f"run.spec:{line}: {field} must"))
    for text, needle in bad:
        spec = write_spec(tmp_path, text)
        assert cli.main(["simulate", str(spec)]) == 2, text
        assert needle in capsys.readouterr().err

    spec = write_spec(tmp_path, SPEC.replace("variant = lms\n", "variant = mflms_modulus\nv = 0.5\n"))  # reads v
    assert cli.main(["sweep", str(spec), "--param", "v", "--grid", "0.5,0"]) == 2
    assert "--grid: v must lie in (0, 1]" in capsys.readouterr().err


# faults of the "key = value" reader that specs and scenarios share, each written in place of the
# line of an integer field {key}, with the fault on the edit's last line
READER_FAULTS = {
    "duplicate_key": ("{line}\n{line}", "duplicate key '{key}'"),
    "unknown_key": ("{line}\nbogus = 1", "unknown key 'bogus'"),
    "no_equals_sign": ("{line}\nbogus", "expected 'key = value'"),
    "not_an_integer": ("{key} = 3.5", "{key} must be an integer, got '3.5'"),
    "unterminated_header": ("{line}\n[bogus", "unterminated section header"),
    "unknown_section": ("{line}\n[bogus]", "unknown section [bogus]"),
}


@pytest.mark.parametrize("edit,message", READER_FAULTS.values(), ids=READER_FAULTS)
@pytest.mark.parametrize("faulty,key", [("run.spec", "T"), ("lin.scenario", "m")])
def test_spec_and_scenario_report_a_fault_alike(tmp_path, capsys, edit, message, faulty, key):
    texts = {"run.spec": SPEC, "lin.scenario": SCENARIO}
    line = next(line for line in texts[faulty].splitlines() if line.startswith(f"{key} = "))
    lineno = texts[faulty].splitlines().index(line) + 1 + edit.count("\n")
    texts[faulty] = texts[faulty].replace(line, edit.format(line=line, key=key))
    spec = write_spec(tmp_path, texts["run.spec"], texts["lin.scenario"])
    assert cli.main(["simulate", str(spec)]) == 2
    assert capsys.readouterr().err.endswith(f"{faulty}:{lineno}: {message.format(key=key)}\n")
    assert not (tmp_path / "out").exists()


def test_too_few_samples_for_a_full_rank_r_exit_2_names_t_line(tmp_path, capsys):
    # builtin:muscle has m = 3 and n = 9: T = 5 leaves 2 regressor rows for a 9 x 9 R
    muscle = SPEC.replace("plant = lin.scenario", "plant = builtin:muscle")
    spec = write_spec(tmp_path, muscle.replace("T = 300", "T = 5"))
    for argv in (["simulate"], ["sweep", "--param", "eta", "--grid", "0.01"], ["wiener"]):
        assert cli.main([argv[0], str(spec), *argv[1:]]) == 2
        assert "run.spec:3: T must be >= m + n = 12" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    spec = write_spec(tmp_path, muscle.replace("T = 300", "T = 12"))
    assert cli.main(["wiener", str(spec)]) == 0


def test_too_many_samples_for_memory_exit_2_names_t_line(tmp_path, capsys):
    # the largest T each command accepts on builtin:muscle (m = 3, n = 9, l = 3) with SPEC's 3 seeds and two
    # filters: `simulate` with emit = both renders 6 curve CSVs; `sweep` (a grid value and the 2/lambda_max row)
    # and emit = summary stack 3 seeds' rows and outputs, 10 float64 a row, beside a batch of 6 rows; `wiener`
    # stacks none and fills 2**27 float64 with its T inputs, a chunk of 7280 rows of 11 float64, a basis window of
    # 7282 x 3, 5 correlation matrices of 9 x 9 and the 81 entries of R's document, 160 bytes each
    muscle = SPEC.replace("plant = lin.scenario", "plant = builtin:muscle")
    cases = (  # (the largest T, emit, argv)
        (1_241_803, "both", ["simulate"]),
        (4_309_284, "summary", ["simulate"]),
        (4_309_284, "both", ["sweep", "--param", "eta", "--grid", "0.01"]),
        (134_113_777, "both", ["wiener"]),  # 2**27 - 7280 * 11 - 7282 * 3 - 5 * 81 - 81 * 160 / 8
    )
    reached = mock.Mock(side_effect=Reached)
    with (mock.patch.object(analysis, "simulate_seeds", reached),
          mock.patch.object(analysis, "stream_correlations", reached)):
        for largest, emit, argv in cases:
            for T in (largest, largest + 1, 10**12):
                text = muscle.replace("T = 300", f"T = {T}").replace("emit = both", f"emit = {emit}")
                spec = write_spec(tmp_path, text)
                assert cli.load_experiment_spec(spec).T == T  # parsing allocates no regressors
                if T == largest:
                    with pytest.raises(Reached):
                        cli.main([argv[0], str(spec), *argv[1:]])
                else:
                    assert cli.main([argv[0], str(spec), *argv[1:]]) == 2
                    assert f"run.spec:3: T={T} is too large" in capsys.readouterr().err
    assert reached.call_count == len(cases)
    assert not (tmp_path / "out").exists()


# m = 1, l = 1 (n = 1) and one seed: T - 1 regressor entries, far inside the bound
TINY_SCENARIO = SCENARIO.replace("m = 3", "m = 1").replace("q = 0.6, 0.3, 0.1", "q = 0.5")
ONE_FILTER = SPEC.replace("seeds = 1, 2, 3", "seeds = 1").split("[filter mom]")[0]


class Reached(Exception):
    """Raised by a mocked simulation: the command passed the memory bound."""


def test_wiener_memory_bound_counts_the_stream_exit_2_names_t_line(tmp_path, capsys):
    # builtin:muscle (m = 3, n = 9): the stacked regressors of T = 15,000,000 would take 1.08 GB, while
    # the stream holds the inputs, 120 MB, one chunk of rows, outputs and noise, its basis window and
    # 5 correlation matrices of 9 x 9, and R's document takes 160 bytes an entry; the largest T it accepts is
    # 2**27 - 7280 * 11 - 7282 * 3 - 5 * 81 - 81 * 160 / 8
    muscle = SPEC.replace("plant = lin.scenario", "plant = builtin:muscle").replace("seeds = 1, 2, 3", "seeds = 1")
    reached = mock.Mock(side_effect=Reached)
    with mock.patch.object(analysis, "stream_correlations", reached):
        spec = write_spec(tmp_path, muscle.replace("T = 300", "T = 15000000"))
        with pytest.raises(Reached):
            cli.main(["wiener", str(spec)])
        counted = cli._check_memory(cli.load_experiment_spec(spec))
        assert counted == (15_000_000 + 7280 * 11 + 7282 * 3 + 5 * 81) * 8 + 81 * 160
        largest, over = (cli.load_experiment_spec(write_spec(tmp_path, muscle.replace("T = 300", f"T = {T}")))
                         for T in (134_113_777, 134_113_778))
        assert cli._check_memory(largest) == cli.MAX_REGRESSOR_BYTES
        with pytest.raises(cli.ExperimentSpecError, match="run.spec:3: T=134113778 is too large"):
            cli._check_memory(over)
        spec = write_spec(tmp_path, muscle.replace("T = 300", "T = 1000000000"))
        assert cli.main(["wiener", str(spec)]) == 2
        err = capsys.readouterr().err
        assert ("run.spec:3: T=1000000000 is too large: the 1000000000 inputs, one chunk of 7280 rows of n + 2 = 11 "
                "float64 (the rows, their outputs and noise), a basis window of 7282 x l = 21846 float64 and 5 "
                "correlation matrices of n x n = 9 x 9 float64; a JSON document of R's 81 entries, would take "
                "8000831608 bytes, more than 1073741824"
                ) in err
    assert reached.call_count == 1


def test_curves_count_against_the_memory_bound_exit_2_names_t_line(tmp_path, capsys):
    grid = ",".join(str(0.001 * k) for k in range(1, 41))
    cases = (  # (T, emit, argv, refused)
        (5 * 10**7, "both", ["simulate"], True),  # 400 MB of regressors, 2 curves of 400 MB
        # no curve kept, but the same regressors, their 400 MB of outputs and the seed's 400 MB of inputs
        (5 * 10**7, "summary", ["simulate"], True),
        # 16 MB of regressors, of outputs and of inputs; a sweep keeps none of its 41 x 2 curves of 16 MB
        (2_000_001, "both", ["sweep", "--param", "eta", "--grid", grid], False),
    )
    reached = mock.Mock(side_effect=Reached)
    with mock.patch.object(analysis, "simulate_seeds", reached), mock.patch.object(analysis, "run_batch", reached):
        for T, emit, argv, refused in cases:
            text = ONE_FILTER.replace("T = 300", f"T = {T}").replace("emit = both", f"emit = {emit}")
            spec = write_spec(tmp_path, text, TINY_SCENARIO)
            assert cli.load_experiment_spec(spec).T == T  # loading a spec counts no memory
            if refused:
                assert cli.main([argv[0], str(spec), *argv[1:]]) == 2
                err = capsys.readouterr().err
                assert f"run.spec:3: T={T} is too large" in err and "Traceback" not in err
            else:
                with pytest.raises(Reached):
                    cli.main([argv[0], str(spec), *argv[1:]])
    assert reached.call_count == 1
    assert not (tmp_path / "out").exists()


def test_memory_bound_counts_three_curves_per_signed_row(tmp_path):
    # one flms_signed row (n = 1), rendering its CSV: three curves (24 bytes a row), the text and two templates
    # (83 bytes a row each for T - 1 < 10**7, and a header row) and one record's floats (96 bytes a row), 369 (T - 1)
    # + 249 bytes; with the chunk loop's T inputs, its chunk of 65,536 rows of 3 float64 and basis window of 65,536,
    # and 5 correlation matrices of 1 x 1, in all 377 (T - 1) + 2,097,449 bytes, which fit up to T - 1 = 2,842,558
    signed = ONE_FILTER.replace("variant = lms", "variant = flms_signed")
    largest, over = (
        cli.load_experiment_spec(write_spec(tmp_path, signed.replace("T = 300", f"T = {T}"), TINY_SCENARIO))
        for T in (2_842_559, 2_842_560)
    )
    assert cli._check_memory(largest, [cfg for _, cfg in largest.filters], curves=True) == 377 * 2_842_558 + 2_097_449
    with pytest.raises(cli.ExperimentSpecError, match="run.spec:3: T=2842560 is too large: .*; rendering 1 curve CSV"):
        cli._check_memory(over, [cfg for _, cfg in over.filters], curves=True)


def test_memory_bound_counts_what_simulate_holds_while_it_renders(tmp_path):
    # one flms_signed row on an m = 1, l = 2 plant and one seed: 20,000 rows of three curves and their CSV text
    # (at T = 200,001 the ratios are the same, but tracing makes the time loop about ten times slower)
    plant = TINY_SCENARIO.replace("l = 1", "l = 2").replace("q = 0.5", "q = 1.0").replace("c = 1.0", "c = 1.0, -1.0")
    signed = ONE_FILTER.replace("variant = lms", "variant = flms_signed\nv = 0.5")
    small = write_spec(tmp_path, signed, plant)
    assert cli.main(["simulate", str(small)]) == 0  # first-call allocations stay outside the trace
    spec = write_spec(tmp_path, signed.replace("T = 300", "T = 20001"), plant)
    loaded = cli.load_experiment_spec(spec)
    counted = cli._check_memory(loaded, [cfg for _, cfg in loaded.filters], curves=True)
    tracemalloc.start()
    try:
        assert cli.main(["simulate", str(spec)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    last_row = (tmp_path / "out" / "lms_small_seed1.csv").read_text().splitlines()[-1]
    assert last_row.split(",")[3] != "0"  # a signed record: three values a row
    assert peak <= counted <= 2 * peak


# m = 500, l = 1 (n = 500): at T = 1,100 the correlations' n x n matrices outweigh the regressor rows
WIDE_SCENARIO = SCENARIO.replace("m = 3", "m = 500").replace("0.6, 0.3, 0.1", ", ".join(["0.5"] + ["0.001"] * 499))
# (scenario, T, seeds, argv, the analysis function a mock stops the command at)
TRACED_COMMANDS = {
    "n1_simulate_summary": (TINY_SCENARIO, 2_000_001, "1", ["simulate"], "run_batch"),
    "n1_sweep": (TINY_SCENARIO, 2_000_001, "1", ["sweep", "--param", "eta", "--grid", "0.01,0.02"], "run_batch"),
    "m500_wiener": (WIDE_SCENARIO, 1100, "1, 2", ["wiener"], "correlation_summary"),
    "m500_simulate": (WIDE_SCENARIO, 1100, "1, 2", ["simulate"], "run_batch"),
}


@pytest.mark.parametrize("scenario,T,seeds,argv,stop", TRACED_COMMANDS.values(), ids=TRACED_COMMANDS)
def test_memory_bound_counts_what_a_command_holds_up_to_its_batch(tmp_path, scenario, T, seeds, argv, stop):
    # up to its batch or its JSON document a command holds a seed's inputs beside the stacked rows and outputs
    # (16 MB each at n = 1) and the correlation matrices (about 4 of 2 MB a seed at n = 500)
    text = ONE_FILTER.replace("seeds = 1", f"seeds = {seeds}").replace("emit = both", "emit = summary")
    small = write_spec(tmp_path, text, TINY_SCENARIO)
    assert cli.main([argv[0], str(small), *argv[1:]]) == 0  # first-call allocations stay outside the trace
    spec = write_spec(tmp_path, text.replace("T = 300", f"T = {T}"), scenario)
    counted, check = [], cli._check_memory
    with (mock.patch.object(cli, "_check_memory", lambda *args, **kw: counted.append(check(*args, **kw))),
          mock.patch.object(analysis, stop, mock.Mock(side_effect=Reached))):
        tracemalloc.start()
        try:
            with pytest.raises(Reached):
                cli.main([argv[0], str(spec), *argv[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(counted) == 1 and peak <= counted[0]


def test_memory_bound_counts_the_batch_through_its_return(tmp_path):
    # a 40-value eta grid and the 2/lambda_max row over 20 seeds, 820 rows of n = 100 (m = 100, l = 1): through
    # its return the batch holds its buffers, a summary a row and its time blocks beside the stacked rows
    m100 = SCENARIO.replace("m = 3", "m = 100").replace("0.6, 0.3, 0.1", ", ".join(["0.5"] + ["0.001"] * 99))
    text = ONE_FILTER.replace("seeds = 1", f"seeds = {', '.join(map(str, range(1, 21)))}")
    grid = ["--param", "eta", "--grid", ",".join(str(0.001 * k) for k in range(1, 41))]
    small = write_spec(tmp_path, text.replace("T = 300", "T = 210"), m100)
    assert cli.main(["sweep", str(small), *grid]) == 0  # first-call allocations stay outside the trace
    argv = ["sweep", str(write_spec(tmp_path, text.replace("T = 300", "T = 400"), m100)), *grid]
    counted, check, run_batch = [], cli._check_memory, analysis.run_batch

    def through(*args, **kw):
        run_batch(*args, **kw)
        raise Reached

    with (mock.patch.object(cli, "_check_memory", lambda *args, **kw: counted.append(check(*args, **kw))),
          mock.patch.object(analysis, "run_batch", through)):
        tracemalloc.start()
        try:
            with pytest.raises(Reached):
                cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(counted) == 1 and peak <= counted[0]


def test_memory_bound_counts_wiener_s_document(tmp_path, capsys):
    # m = 500, l = 1: R's 250,000 entries as lists, their JSON text and its bytes, about 160 bytes an entry
    text = ONE_FILTER.replace("emit = both", "emit = summary")
    out = str(tmp_path / "wiener.json")
    assert cli.main(["wiener", str(write_spec(tmp_path, text, TINY_SCENARIO)), "--out", out]) == 0
    spec = write_spec(tmp_path, text.replace("T = 300", "T = 1100"), WIDE_SCENARIO)
    counted = cli._check_memory(cli.load_experiment_spec(spec))
    tracemalloc.start()
    try:
        assert cli.main(["wiener", str(spec), "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out) > 250_000 * 20
    assert peak <= counted


def test_sweep_counts_its_grid_before_parsing_it(tmp_path, capsys):
    # the grid's 3 values (and the 2/lambda_max row) count from its text; a T too large exits 2 on its own line
    text = ONE_FILTER.replace("T = 300", "T = 50000000")
    spec = write_spec(tmp_path, text, TINY_SCENARIO)
    assert cli.main(["sweep", str(spec), "--param", "eta", "--grid", "0.01,x,0.02"]) == 2
    err = capsys.readouterr().err
    assert "run.spec:3: T=50000000 is too large" in err and "a batch of 4 row(s), 0 of them signed" in err
    assert cli.main(["sweep", str(write_spec(tmp_path, ONE_FILTER, TINY_SCENARIO)), "--param", "eta",
                     "--grid", "0.01,x,0.02"]) == 2
    assert "--grid: eta values must be comma-separated numbers" in capsys.readouterr().err


def test_csv_template_cache_keeps_the_two_templates_the_memory_bound_counts(tmp_path):
    # rows that diverge at different steps render CSVs of many lengths, each from its own template
    seeds = ", ".join(str(seed) for seed in range(1, 11))
    text = SPEC[: SPEC.index("[filter")].replace("T = 300", "T = 3000").replace("seeds = 1, 2, 3", f"seeds = {seeds}")
    text += "[filter fast]\nvariant = lms\neta = 1.9\n\n[filter signed]\nvariant = flms_signed\neta = 1.5\nv = 0.5\n"
    analysis._csv_template.cache_clear()
    assert cli.main(["simulate", str(write_spec(tmp_path, text))]) == 0
    info = analysis._csv_template.cache_info()
    assert info.misses > 2 and info.currsize <= 2


@pytest.mark.parametrize("variant,field,value", [
    ("lms", "beta", "0.3"),
    ("lms", "v", "0.5"),
    ("momentum_lms", "power_interpretation", "euclidean_norm"),
    ("flms_signed", "epsilon_guard", "0.1"),
])
def test_field_the_variant_ignores_exit_2_names_line(tmp_path, capsys, variant, field, value):
    text = SPEC + f"\n[filter extra]\nvariant = {variant}\neta = 0.05\n{field} = {value}\n"
    line = text.splitlines().index(f"{field} = {value}") + 1
    spec = write_spec(tmp_path, text)
    assert cli.main(["simulate", str(spec)]) == 2
    assert f"run.spec:{line}: {field} is not read by variant {variant!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_of_a_field_the_variant_ignores_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path)  # the first filter is lms, which reads only eta
    for param, grid in (("beta", "0.5"), ("v", "0.5"), ("v", "2")):  # v = 2 is out of range too
        assert cli.main(["sweep", str(spec), "--param", param, "--grid", grid]) == 2
        assert capsys.readouterr().err.startswith(f"error: --param: variant 'lms' of filter 'lms_small' does not read {param}")
    assert not (tmp_path / "out").exists()


def test_negative_seed_exit_2_names_line(tmp_path, capsys):
    spec = write_spec(tmp_path, SPEC.replace("seeds = 1, 2, 3", "seeds = 1, -2"))
    for command in ("simulate", "wiener"):
        assert cli.main([command, str(spec)]) == 2
        assert "run.spec:4: seeds must be >= 0" in capsys.readouterr().err


def test_negative_scenario_seed_exit_2_names_line(tmp_path, capsys):
    spec = write_spec(tmp_path, scenario_text=SCENARIO.replace("seed = 3", "seed = -1"))
    scenario = os.path.realpath(tmp_path / "lin.scenario")
    for argv in (["simulate"], ["sweep", "--param", "eta", "--grid", "0.01"], ["wiener"]):
        assert cli.main([argv[0], str(spec), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {scenario}:7: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_non_finite_scenario_taps_exit_2_names_line(tmp_path, capsys):
    for old, new, needle in (
        ("q = 0.6, 0.3, 0.1", "q = nan, 0.3, 0.1", "lin.scenario:4: q must be finite"),
        ("c = 1.0", "c = inf", "lin.scenario:5: c must be finite"),
        ("q = 0.6, 0.3, 0.1\nc = 1.0", "q = 1e300, 0.3, 0.1\nc = 1e300", "lin.scenario:4: q times c overflows"),
    ):
        spec = write_spec(tmp_path, scenario_text=SCENARIO.replace(old, new))
        assert cli.main(["simulate", str(spec)]) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["eta", "epsilon_guard"])
def test_non_finite_filter_field_exit_2_names_line(tmp_path, capsys, field):
    fields = {"variant": "mflms_modulus", "eta": "0.05", "v": "0.5", field: "inf"}
    text = SPEC + "\n[filter extra]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
    line = text.splitlines().index(f"{field} = inf") + 1
    spec = write_spec(tmp_path, text)
    assert cli.main(["simulate", str(spec)]) == 2
    assert f"run.spec:{line}: {field} must be finite and >= 0, got inf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_noise_std_exit_2_names_line(tmp_path, capsys):
    spec = write_spec(tmp_path, scenario_text=SCENARIO.replace("noise_std = 0.01", "noise_std = inf"))
    assert cli.main(["simulate", str(spec)]) == 2
    assert "lin.scenario:6: noise_std must be finite and >= 0, got inf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_staging_never_removes_another_runs_files(tmp_path):
    # another run's staging directory next to the same outdir, under the name it used to share,
    # and another run's temp file inside it, under the name the writer gives its own
    spec = write_spec(tmp_path)
    foreign = tmp_path / ".out.staging"
    foreign.mkdir()
    (foreign / "lms_small_seed1.csv").write_text("another run's file")
    (tmp_path / "out").mkdir()
    pending = tmp_path / "out" / ".lms_small_seed1.csv.0123456789abcdef.tmp"
    pending.write_text("another run's file")
    assert cli.main(["simulate", str(spec)]) == 0
    assert (foreign / "lms_small_seed1.csv").read_text() == "another run's file"
    assert pending.read_text() == "another run's file"
    assert sorted(p.name for p in tmp_path.iterdir()) == [".out.staging", "lin.scenario", "out", "run.spec"]
    assert len(list((tmp_path / "out").iterdir())) == 8 + 1


def test_simulate_removes_its_own_stale_files(tmp_path):
    spec = write_spec(tmp_path)
    assert cli.main(["simulate", str(spec)]) == 0
    renamed = SPEC.replace("[filter lms_small]", "[filter lms_big]").replace("emit = both", "emit = curves")
    assert cli.main(["simulate", str(write_spec(tmp_path, renamed))]) == 0
    expected = [f"{name}_seed{seed}.csv" for name in ("lms_big", "mom") for seed in (1, 2, 3)]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(expected)


def test_simulate_keeps_files_outside_its_family(tmp_path):
    spec = write_spec(tmp_path)
    assert cli.main(["sweep", str(spec), "--param", "eta", "--grid", "0.01,0.02"]) == 0
    outdir = tmp_path / "out"
    (outdir / "notes.txt").write_text("mine")
    (outdir / "gone_seed9.csv").write_text("an earlier run's curve")
    assert cli.main(["simulate", str(spec)]) == 0
    names = {p.name for p in outdir.iterdir()}
    assert {"sweep_eta.csv", "sweep_eta.json", "notes.txt"} <= names and "gone_seed9.csv" not in names
    assert len(names) == 3 + 8 and (outdir / "notes.txt").read_text() == "mine"


def test_failed_write_leaves_the_outdir_as_it_was(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path)
    assert cli.main(["simulate", str(spec)]) == 0
    outdir = tmp_path / "out"
    before = read_artifacts(outdir)
    write_spec(tmp_path, SPEC.replace("eta = 0.05", "eta = 0.04"))  # every artifact would change
    written = []
    real_write_bytes = Path.write_bytes

    def full_on_the_second_file(self, data):
        written.append(self.name)
        if len(written) == 2:
            raise OSError("disk full")
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", full_on_the_second_file)
    assert cli.main(["simulate", str(spec)]) == 2
    assert f"error: {outdir}: cannot write artifacts: disk full" in capsys.readouterr().err
    assert len(written) == 2 and read_artifacts(outdir) == before
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("broken", ["run.spec", "lin.scenario"])
def test_file_that_is_not_utf8_exit_2_names_it(tmp_path, capsys, broken):
    spec = write_spec(tmp_path)
    (tmp_path / broken).write_bytes(b"# caf\xe9\n" + (tmp_path / broken).read_bytes())
    assert cli.main(["simulate", str(spec)]) == 2
    err = capsys.readouterr().err
    assert f"{broken}: not valid UTF-8" in err and "Traceback" not in err


# "out" is a regular file, or "notes.txt" is where a parent directory must be (no permission bits involved)
@pytest.mark.parametrize("outputs", ["out", "notes.txt/out"])
def test_outputs_that_cannot_be_written_exit_2_names_it(tmp_path, capsys, outputs):
    spec = write_spec(tmp_path, SPEC.replace("outputs = out", f"outputs = {outputs}"))
    blocker = tmp_path / outputs.split("/")[0]
    blocker.write_text("mine")
    for argv in (["simulate"], ["sweep", "--param", "eta", "--grid", "0.01"]):
        assert cli.main([argv[0], str(spec), *argv[1:]]) == 2
        assert f"error: {tmp_path / outputs}: cannot write artifacts" in capsys.readouterr().err
    assert blocker.read_text() == "mine"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["lin.scenario", "run.spec", blocker.name])


def test_overflowing_correlations_never_exit_0(tmp_path, capsys):
    # q_1 * c = 1e307 is finite, but p, a mean of ~1e307 * r(t-1)**2 over 297 rows, overflows float64
    scenario = SCENARIO.replace("q = 0.6, 0.3, 0.1", "q = 1e307, 0.3, 0.1")
    spec = write_spec(tmp_path, SPEC.replace("variant = lms", "variant = momentum_lms"), scenario)  # sweeps beta
    sweeps = [["sweep", "--param", param, "--grid", "0.01"] for param in ("eta", "beta")]
    for argv in (["wiener"], ["simulate"], *sweeps):
        assert cli.main([argv[0], str(spec), *argv[1:]]) == 2
        assert "run.spec:2: plant: R or p is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# finite scenario values whose data overflow float64, each reported once, on the plant line
OVERFLOWING_DATA = {
    # r**600 overflows for any |r| > 3.3
    "basis": f"m = 1\nl = 600\nbasis = polynomial\nq = 1.0\nc = {', '.join(['1e-300'] * 600)}\n",
    # the outputs X @ w
    "outputs": SCENARIO.replace("q = 0.6, 0.3, 0.1", "q = 1e308, 1e308, 1e308"),
    # the outputs, then the outputs plus the noise
    "outputs_plus_noise": SCENARIO.replace("c = 1.0", "c = 1e308").replace("noise_std = 0.01", "noise_std = 1e307"),
    # the noise, drawn standard normal and scaled by noise_std
    "noise": SCENARIO.replace("noise_std = 0.01", "noise_std = 1e308"),
    # inf - inf: the outputs plus the noise are NaN where their overflows differ in sign
    "nan_outputs": SCENARIO.replace("q = 0.6, 0.3, 0.1", "q = 1e308, -1e308, 1e308").replace("= 0.01", "= 1e308"),
}


@pytest.mark.parametrize("scenario", OVERFLOWING_DATA.values(), ids=OVERFLOWING_DATA)
def test_overflowing_basis_reports_one_error_and_no_warning(tmp_path, scenario):
    spec = write_spec(tmp_path, SPEC.replace("T = 300", "T = 1000"), scenario)
    for argv in (["wiener"], ["simulate"], ["sweep", "--param", "eta", "--grid", "0.01"]):
        proc = python_m_cli(argv[0], str(spec), *argv[1:])  # stderr as a user sees it, warnings included
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {spec}:2: plant: R or p is not finite: the data overflow float64"]
    assert not (tmp_path / "out").exists()


def test_overflow_after_the_first_chunk_reports_one_error_and_no_warning(tmp_path):
    # r, r^2, ..., r^300 of one Gaussian input: R holds r^600, which overflows for |r| above
    # about 3.26; seed 1 draws such an r only after the first chunk of rows
    scenario = f"m = 1\nl = 300\nbasis = polynomial\nq = 1.0\nc = {', '.join(['1e-300'] * 300)}\n"
    spec = write_spec(tmp_path, SPEC.replace("T = 300", "T = 2000"), scenario)
    plant = load_scenario(tmp_path / "lin.scenario")
    data = generate_sequence(plant, T=2000, rng=np.random.default_rng(1))
    first = slice(analysis._chunk_rows(plant.n))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(data.X[first].T @ data.X[first]).all()
        assert np.isfinite(data.X[first].T @ data.outputs[first]).all()
        assert not np.isfinite(data.X.T @ data.X).all()
    proc = python_m_cli("wiener", str(spec))  # stderr as a user sees it, warnings included
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {spec}:2: plant: R or p is not finite: the data overflow float64"]


def test_wiener_holds_no_regressor_matrix(tmp_path, capsys):
    text = SPEC.replace("lin.scenario", "builtin:muscle").replace("seeds = 1, 2, 3", "seeds = 1")
    assert cli.main(["wiener", str(write_spec(tmp_path, text))]) == 0  # first-call allocations stay outside
    spec = write_spec(tmp_path, text.replace("T = 300", "T = 200000"))
    tracemalloc.start()
    try:
        assert cli.main(["wiener", str(spec)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    # the inputs and one chunk of rows, outputs and noise; X would take (T - m) * n * 8 = 14.4 MB
    assert peak < (200000 - 3) * 9 * 8 / 3
    # the noise is drawn a chunk at a time, never held whole beside the inputs: 2 * T * 8 = 3.2 MB
    assert peak < 2 * 200000 * 8


def test_singular_correlation_exit_2_names_plant_line(tmp_path, capsys):
    # r, r^2, ..., r^12 of one Gaussian input: R's eigenvalues span far more than 12 decades
    scenario = f"m = 1\nl = 12\nbasis = polynomial\nq = 1.0\nc = {', '.join(['1.0'] * 12)}\n"
    for T in (40, 400):
        spec = write_spec(tmp_path, SPEC.replace("T = 300", f"T = {T}"), scenario)
        for argv in (["simulate"], ["sweep", "--param", "eta", "--grid", "0.01"], ["wiener"]):
            assert cli.main([argv[0], str(spec), *argv[1:]]) == 2
            assert f"error: {spec}:2: plant: smallest eigenvalue" in capsys.readouterr().err
        assert cli.main(["wiener", str(spec), "--ridge", "1"]) == 0
    assert not (tmp_path / "out").exists()


# branches of the spec reader and the command line that no other test reaches:
# (spec text, or None for no spec file; command after the spec path; the error message)
SPEC_FAULTS = {
    "missing_scenario": (SPEC.replace("lin.scenario", "gone.scenario"), ["simulate"], "{spec}:2: plant: [Errno 2]"),
    "second_experiment": (SPEC + "[experiment]\n", ["simulate"], "{spec}:16: duplicate [experiment] section"),
    "bare_filter": (SPEC + "[filter]\n", ["simulate"], "{spec}:16: filter section must be named like [filter NAME]"),
    "filter_prefix": (SPEC + "[filterbank lms]\n", ["simulate"], "{spec}:16: unknown section [filterbank lms]"),
    "no_experiment": (SPEC[SPEC.index("[filter"):], ["simulate"], "{spec}: missing [experiment] section"),
    "no_filter": (
        SPEC[: SPEC.index("[filter")], ["simulate"], "{spec}: at least one [filter NAME] section is required"
    ),
    # these values name the spec's own directory, whose files simulate clears
    "empty_outputs": (SPEC.replace("outputs = out", "outputs ="), ["simulate"], "{spec}:5: outputs must name a"),
    "dot_outputs": (SPEC.replace("outputs = out", "outputs = ."), ["simulate"], "{spec}:5: outputs must name a"),
    "up_outputs": (SPEC.replace("outputs = out", "outputs = sub/.."), ["simulate"], "{spec}:5: outputs must name a"),
    "unknown_input":(SPEC.replace("emit = both", "emit = both\ninput = pink"), ["simulate"], "{spec}:7: input must"),
    "unknown_emit": (SPEC.replace("emit = both", "emit = loud"), ["simulate"], "{spec}:6: emit must be one of"),
    "grid_not_numbers": (
        SPEC, ["sweep", "--param", "eta", "--grid", "0.1,abc"], "--grid: eta values must be comma-separated numbers"
    ),
    "no_spec_file": (None, ["simulate"], "{spec}: [Errno 2] No such file or directory"),
}


@pytest.mark.parametrize("text,argv,message", SPEC_FAULTS.values(), ids=SPEC_FAULTS)
def test_spec_and_command_faults_exit_2_naming_where(tmp_path, capsys, text, argv, message):
    spec = write_spec(tmp_path, text) if text is not None else tmp_path / "run.spec"
    assert cli.main([argv[0], str(spec), *argv[1:]]) == 2
    assert f"error: {message.format(spec=spec)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# command lines the reader rejects, SPEC standing for the spec path and OUT for a file beside it:
# (argv, the argument the error line names)
USAGE_ERRORS = {
    "no_command": ([], "command"),
    "unknown_command": (["simulat", "SPEC"], "simulat"),
    "no_spec": (["simulate"], "SPEC"),
    "two_specs": (["simulate", "SPEC", "SPEC"], "run.spec"),
    "unknown_option": (["simulate", "SPEC", "--loud"], "--loud"),
    "abbreviation": (["simulate", "--fail", "SPEC"], "--fail"),
    "no_value_at_the_end": (["wiener", "SPEC", "--out"], "--out"),
    "param_gamma": (["sweep", "SPEC", "--param", "gamma", "--grid", "0.1"], "gamma"),
    "no_grid": (["sweep", "SPEC", "--param", "eta"], "--grid"),
    "ridge_abc": (["wiener", "SPEC", "--ridge", "abc"], "abc"),
    "flag_with_a_value": (["simulate", "SPEC", "--fail-on-diverge=yes"], "--fail-on-diverge=yes"),
    "format_xml": (["audit", "--format=xml", "--out", "OUT"], "xml"),
    "repeated_out": (["wiener", "--out", "OUT", "SPEC", "--out=OUT"], "--out"),
}


@pytest.mark.parametrize("argv,named", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exit_2_names_the_argument(tmp_path, capsys, argv, named):
    places = {"SPEC": str(write_spec(tmp_path)), "OUT": str(tmp_path / "doc.json")}
    assert cli.main([places.get(arg, arg) for arg in argv]) == 2  # a raised SystemExit fails the test
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(cli.USAGE)
    assert err[len(cli.USAGE):].startswith("error: ") and named in err[len(cli.USAGE):]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lin.scenario", "run.spec"]  # nothing written


def test_help_prints_the_usage_exit_0(tmp_path, capsys):
    for command, (_, _, options) in cli.COMMANDS.items():  # the usage names every command and option
        assert f"harxlab {command} " in cli.USAGE and all(name in cli.USAGE for name in options)
    spec = str(write_spec(tmp_path))
    for argv in (["-h"], ["--help"], ["simulate", "-h"], ["sweep", spec, "--param", "eta", "--help"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (cli.USAGE, "")
    proc = python_m_cli("--help")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, cli.USAGE, "")


def test_plant_through_a_symlink_loop_exit_2_names_plant_line(tmp_path):
    spec = write_spec(tmp_path, SPEC.replace("plant = lin.scenario", "plant = a/x.scenario"))
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    proc = python_m_cli("simulate", str(spec))  # stderr as a user sees it
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {spec}:2: plant: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_builtin_muscle_plant_reference(tmp_path):
    spec_text = SPEC.replace("plant = lin.scenario", "plant = builtin:muscle").replace("eta = 0.05", "eta = 0.002")
    spec = write_spec(tmp_path, spec_text)
    assert cli.main(["simulate", str(spec)]) == 0
    doc = json.loads((tmp_path / "out" / "lms_small_summary.json").read_text())
    assert doc["plant"]["m"] == 3 and doc["plant"]["l"] == 3


def test_records_that_hold_arrays_hash_and_compare_by_identity(tmp_path):
    # generated __eq__ and __hash__ would compare and hash the arrays inside: ValueError and TypeError
    spec = cli.load_experiment_spec(write_spec(tmp_path))
    data = generate_sequence(spec.plant, T=20)
    cfg = FilterConfig(variant="lms", eta=0.05, dim=spec.plant.n)
    records = [
        spec.plant, data, initial_state(cfg), analysis.estimate_correlations(data),
        analysis.simulate_seeds(spec.plant, 20, [1]), analysis.run_experiment(spec.plant, cfg, 20, 1),
        analysis.binomial_report(2.0, 0.5, 0.5, 3), spec,
    ]
    for record in records:
        assert {record: type(record)}[record] is type(record) and hash(record) == hash(record)
        assert record == record and record != copy.copy(record)  # the copy holds the same arrays


# ---------------------------------------------------------------------------
# audit


def test_python_m_cli_runs_the_command():
    proc = python_m_cli("audit")  # cli runs as __main__ here, and loads the checker itself
    assert proc.returncode == 0
    width = max(len(eq_id) for eq_id, _ in cli.GOLDEN_AUDIT)
    rows = [("equation", "verdict"), *cli.GOLDEN_AUDIT]
    assert proc.stdout == "".join(f"{eq_id:<{width}}  {verdict}\n" for eq_id, verdict in rows)
    assert proc.stderr == ""


# the batch commands, then `audit`, in one fresh interpreter
DEFERRED_CHECKER = """\
import contextlib, io, json, sys
from harxlab import cli

spec = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["simulate", spec]),
        cli.main(["sweep", spec, "--param", "eta", "--grid", "0.02,0.2"]),
        cli.main(["wiener", spec]),
    ]
    loaded = "harxlab.shapecheck" in sys.modules
    parsers = sorted({"argparse", "getopt", "gettext", "locale"} & sys.modules.keys())
    audit = cli.main(["audit"])
print(json.dumps({
    "batch_codes": codes,
    "checker_loaded_by_batch": loaded,
    "parsers_loaded_by_batch": parsers,
    "audit_code": audit,
    "cli_shapecheck_is_module": cli.shapecheck is sys.modules["harxlab.shapecheck"],
    "other_names_missing": getattr(cli, "nope", None) is None,
}))
"""


def test_only_audit_loads_the_shape_checker(tmp_path):
    proc = fresh_python("-c", DEFERRED_CHECKER, str(write_spec(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "batch_codes": [0, 0, 0],
        "checker_loaded_by_batch": False,
        "parsers_loaded_by_batch": [],
        "audit_code": 0,
        "cli_shapecheck_is_module": True,
        "other_names_missing": True,
    }


def test_audit_exit_zero_and_table(capsys):
    assert cli.main(["audit"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 8  # header + 7 corpus rows
    for eq_id, _ in cli.GOLDEN_AUDIT:
        assert any(line.startswith(eq_id) for line in lines)


def test_audit_json_format(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert cli.main(["audit", "--format", "json", "--out", str(out_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, list) and len(doc) == 7
    for row in doc:
        assert set(row) == {"equation_id", "verdict", "message"}
        assert row["verdict"] in ("well_formed", "mismatch", "unsatisfiable")
    assert json.loads(out_path.read_text())[0]["equation_id"] == "eq8_original"


def test_audit_bytes_match_the_golden_copies(capsys, tmp_path):
    # the table, the JSON document and its --out copy, byte for byte, notes included
    golden = Path(__file__).parent / "golden"
    assert cli.main(["audit"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (golden / "audit.txt").read_bytes()
    out_path = tmp_path / "report.json"
    assert cli.main(["audit", "--format", "json", "--out", str(out_path)]) == 0
    document = (golden / "audit.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == document == out_path.read_bytes()


def test_audit_report_of_a_row_without_a_note_is_its_verdict():
    from harxlab import shapecheck

    env = shapecheck.corpus_env()
    rows = [(eq_id, shapecheck.infer_shape(shapecheck.parse_expr(text), env)) for eq_id, text in (
        ("eq23", shapecheck.EQ23_TEXT),
        ("dyad", "Psi * Psi'"),  # no entry in AUDIT_NOTES
    )]
    assert "dyad" not in shapecheck.AUDIT_NOTES
    eq23, dyad = shapecheck.audit_report(rows)
    assert eq23["message"] == f"{rows[0][1].describe()} | {shapecheck.AUDIT_NOTES['eq23']}"
    assert dyad == {"equation_id": "dyad", "verdict": "well_formed", "message": "well_formed(matrix(9,9))"}


def check_out_is_all_or_nothing(argv, tmp_path, capsys, monkeypatch):
    """``argv + ["--out", PATH]`` writes stdout's bytes, or exits 2 naming PATH and leaves nothing behind."""
    doc = tmp_path / "doc.json"
    assert cli.main([*argv, "--out", str(doc)]) == 0
    written = doc.read_bytes()
    assert written == capsys.readouterr().out.encode("utf-8")
    (tmp_path / "notes.txt").write_text("mine")
    (tmp_path / "taken").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    # a directory, and a path under a regular file (no permission bits involved)
    for out in ("taken", "notes.txt/doc.json"):
        assert cli.main([*argv, "--out", str(tmp_path / out)]) == 2
        assert f"error: {tmp_path / out}: --out: cannot write" in capsys.readouterr().err

    def disk_full(*_):
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(cli.os, "replace", disk_full)  # the final move fails
        assert cli.main([*argv, "--out", str(doc)]) == 2
        assert f"error: {doc}: --out: cannot write: disk full" in capsys.readouterr().err
        m.chdir(tmp_path)
        assert cli.main([*argv, "--out", "."]) == 2
        assert "error: .: --out: cannot write: not a file name" in capsys.readouterr().err
        # a trailing separator names a directory, taken or not, never a file named after it
        for out in ("taken/", "fresh/"):
            assert cli.main([*argv, "--out", out]) == 2
            assert f"error: {out}: --out: cannot write: not a file name" in capsys.readouterr().err
    assert doc.read_bytes() == written  # the earlier file, untouched
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no temp file left over
    assert (tmp_path / "notes.txt").read_text() == "mine" and not any((tmp_path / "taken").iterdir())


def test_audit_out_is_all_or_nothing(tmp_path, capsys, monkeypatch):
    check_out_is_all_or_nothing(["audit", "--format", "json"], tmp_path, capsys, monkeypatch)


def test_audit_regression_guard(monkeypatch, capsys):
    # simulate a mutated checker: the scalar+vector defect goes undetected
    from harxlab import shapecheck

    real_rows = shapecheck.audit_corpus()

    def mutated():
        rows = []
        for eq_id, verdict in real_rows:
            if eq_id == "eq23":
                verdict = shapecheck.ShapeVerdict.well_formed(shapecheck.Shape.vector(9))
            rows.append((eq_id, verdict))
        return rows

    monkeypatch.setattr(cli.shapecheck, "audit_corpus", mutated)
    assert cli.main(["audit"]) == 4
    err = capsys.readouterr().err
    assert "eq23" in err and "regression" in err


def test_audit_regression_names_a_missing_row(monkeypatch, capsys):
    from harxlab import shapecheck

    rows = shapecheck.audit_corpus()[:-1]  # the F row goes missing
    monkeypatch.setattr(cli.shapecheck, "audit_corpus", lambda: rows)
    assert cli.main(["audit"]) == 4
    err = capsys.readouterr().err
    assert err.splitlines()[1:] == [f"  row 6: expected {cli.GOLDEN_AUDIT[6]}, got None"]


@pytest.mark.parametrize("argv", [["audit"], ["audit", "--format", "json", "--out", "report.json"]])
def test_audit_evaluates_the_corpus_once(argv, monkeypatch, capsys, tmp_path):
    from harxlab import shapecheck

    monkeypatch.chdir(tmp_path)
    with mock.patch.object(shapecheck, "audit_corpus", wraps=shapecheck.audit_corpus) as corpus:
        assert cli.main(argv) == 0
    assert corpus.call_count == 1


# ---------------------------------------------------------------------------
# sweep


def test_sweep_beta_grid_validation(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert cli.main(["sweep", str(spec), "--param", "beta", "--grid", "0.0,0.5,1.0"]) == 2
    assert "beta" in capsys.readouterr().err


def test_sweep_eta_includes_reference_row(tmp_path):
    spec = write_spec(tmp_path)
    assert cli.main(["sweep", str(spec), "--param", "eta", "--grid", "0.02,0.2,8.0"]) == 0
    lines = (tmp_path / "out" / "sweep_eta.csv").read_text().splitlines()
    assert lines[0] == "param_value,diverged_fraction,terminal_weight_error_mean,leak_fraction_mean"
    assert len(lines) == 5  # header + 3 grid rows + reference row
    assert lines[-1].startswith("2/lambda_max,")
    fractions = [float(line.split(",")[1]) for line in lines[1:4]]
    assert fractions == sorted(fractions)
    assert fractions[0] == 0.0 and fractions[-1] == 1.0
    assert lines[3].split(",")[2] == "nan"  # eta = 8 diverges on every seed
    doc = json.loads((tmp_path / "out" / "sweep_eta.json").read_text())
    assert doc["cells"][2]["terminal_weight_error_mean"] is None
    assert doc["cells"][0]["terminal_weight_error_mean"] > 0.0
    assert doc["eta_reference_2_over_lambda_max"] == pytest.approx(2.0 / doc["lambda_max"])


def test_sweep_eta_must_ascend(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert cli.main(["sweep", str(spec), "--param", "eta", "--grid", "0.2,0.1"]) == 2
    assert "ascending" in capsys.readouterr().err


def test_sweep_v_singleton_matches_momentum_double_step(tmp_path):
    spec_text = """\
[experiment]
plant = lin.scenario
T = 400
seeds = 1, 2
outputs = out
emit = summary

[filter frac]
variant = mflms_modulus
eta = 0.05
beta = 0.3
v = 0.5
"""
    spec = write_spec(tmp_path, spec_text)
    assert cli.main(["sweep", str(spec), "--param", "v", "--grid", "1.0"]) == 0
    lines = (tmp_path / "out" / "sweep_v.csv").read_text().splitlines()
    swept = float(lines[1].split(",")[2])

    # direct momentum run at 2*eta over the same plant/seeds
    from harxlab.plant import load_scenario

    plant = load_scenario(tmp_path / "lin.scenario")
    cfg = FilterConfig(variant="momentum_lms", eta=0.1, dim=plant.n, beta=0.3)
    terminal = np.mean(
        [analysis.run_experiment(plant, cfg, 400, s).weight_error_curve[-1] for s in (1, 2)]
    )
    assert abs(swept - float(terminal)) <= 1e-12


# ---------------------------------------------------------------------------
# wiener


def test_wiener_bad_ridge_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path)
    streamed = mock.Mock(side_effect=AssertionError("the ridge is checked before the stream"))
    with mock.patch.object(analysis, "stream_correlations", streamed):
        for ridge in ("-1", "nan", "inf"):
            assert cli.main(["wiener", str(spec), "--ridge", ridge]) == 2
            assert f"--ridge: ridge must be finite and >= 0, got {float(ridge)}" in capsys.readouterr().err
        # a fault of the spec, and then of its memory bound, comes first
        for text, fault in ((SPEC.replace("T = 300", "T = 5"), "T must be >= m + n"),
                            (SPEC.replace("T = 300", f"T = {10**12}"), f"T={10**12} is too large")):
            assert cli.main(["wiener", str(write_spec(tmp_path, text)), "--ridge", "-1"]) == 2
            assert f"run.spec:3: {fault}" in capsys.readouterr().err


def test_wiener_json_document(tmp_path, capsys):
    spec = write_spec(tmp_path, SPEC.replace("T = 300", "T = 4000"))
    assert cli.main(["wiener", str(spec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sample_count"] == 4000 - 3
    assert len(doc["omega_opt"]) == 3 and len(doc["R"]) == 3
    assert doc["eta_stability_reference"] == pytest.approx(2.0 / doc["lambda_max"])
    gap = np.linalg.norm(np.array(doc["omega_opt"]) - np.array(doc["true_weight_vector"]))
    assert gap < 0.05


def test_wiener_out_is_all_or_nothing(tmp_path, capsys, monkeypatch):
    check_out_is_all_or_nothing(["wiener", str(write_spec(tmp_path))], tmp_path, capsys, monkeypatch)


def test_out_creates_missing_parent_directories(tmp_path, capsys):
    doc = tmp_path / "new" / "dir" / "doc.json"
    assert cli.main(["wiener", str(write_spec(tmp_path)), "--out", str(doc)]) == 0
    assert doc.read_bytes() == capsys.readouterr().out.encode("utf-8")
    assert [p.name for p in doc.parent.iterdir()] == ["doc.json"]  # no temp file left over


# ---------------------------------------------------------------------------
# the same results on any CPU: BLAS kernels and numpy's SIMD loops are picked per host

# a negative nonlinearity coefficient, so flms_signed leaves the real axis
HOST_SCENARIO = SCENARIO.replace("l = 1", "l = 2").replace("c = 1.0", "c = 1.0, -0.5")
HOST_SPEC = """\
[experiment]
plant = lin.scenario
T = 400
seeds = 1, 2
outputs = out
emit = both

[filter signed]
variant = flms_signed
eta = 0.05
beta = 0.2
v = 0.5

[filter lms]
variant = lms
eta = 0.05

[filter mom]
variant = momentum_lms
eta = 0.05
beta = 0.4

[filter mod]
variant = mflms_modulus
eta = 0.02
beta = 0.2
v = 0.75
"""
HOST_RUN = """\
import sys
from harxlab import cli

spec, out = sys.argv[1], sys.argv[2]
sweep = ["sweep", spec, "--param", "eta", "--grid", "0.01,0.05,0.3,3.0"]
for argv in (["simulate", spec], sweep, ["wiener", spec, "--out", out]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# each variant: its environment, and the CPU features (numpy's names) it needs to mean anything
HOST_VARIANTS = {
    "openblas_prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, ("SSE3",)),
    "openblas_haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
    "numpy_no_avx512": (
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
        ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
    ),
}
# the benchmark's bound on every number of an artifact
RTOL, ATOL = 1e-9, 1e-12


def run_on_host_variant(home: Path, variant_env: dict) -> dict[str, str]:
    home.mkdir()
    spec = write_spec(home, HOST_SPEC, HOST_SCENARIO)
    outdir = home / "out"
    ours = {cli.OUTDIR_ENV, "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"}
    env = {k: v for k, v in os.environ.items() if k not in ours} | PINNED | variant_env
    proc = fresh_python("-c", HOST_RUN, str(spec), str(outdir / "wiener.json"), env=env)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_text("utf-8") for p in sorted(outdir.iterdir())}


def leaves(name: str, text: str) -> list[tuple[str, object]]:
    """(place, value) for every value of an artifact: JSON leaves, or CSV cells past the first column."""

    def walk(doc, place):
        if isinstance(doc, dict):
            return [leaf for k in sorted(doc) for leaf in walk(doc[k], f"{place}.{k}")]
        if isinstance(doc, list):
            return [leaf for i, v in enumerate(doc) for leaf in walk(v, f"{place}[{i}]")]
        return [(place, doc)]

    if name.endswith(".json"):
        return walk(json.loads(text), name)
    header, *rows = (line.split(",") for line in text.splitlines())
    cells = [(f"{name}:0", header)]
    for i, (first, *rest) in enumerate(rows, 1):  # an iteration or a swept value: exact
        cells += [(f"{name}:{i}", first), *((f"{name}:{i}:{j}", float(x)) for j, x in enumerate(rest, 1))]
    return cells


def skeleton(cells):
    return [(place, None if isinstance(value, float) else value) for place, value in cells]


@pytest.fixture(scope="module")
def host_baseline(tmp_path_factory):
    return run_on_host_variant(tmp_path_factory.mktemp("host") / "baseline", {})


@pytest.mark.parametrize("variant", sorted(HOST_VARIANTS))
def test_results_do_not_depend_on_the_cpu(variant, host_baseline, tmp_path):
    from numpy._core._multiarray_umath import __cpu_features__

    variant_env, needs = HOST_VARIANTS[variant]
    missing = [f for f in needs if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"this CPU lacks {missing}")
    got = run_on_host_variant(tmp_path / variant, variant_env)
    assert got.keys() == host_baseline.keys()
    for name, text in host_baseline.items():
        want, have = leaves(name, text), leaves(name, got[name])
        # the same places, and every value but a float exactly the same: row counts,
        # iterations, diverged, complex_events, first_leak_iter
        assert skeleton(have) == skeleton(want), name
        floats = [(h, w) for (_, h), (_, w) in zip(have, want) if isinstance(w, float)]
        np.testing.assert_allclose(*zip(*floats), rtol=RTOL, atol=ATOL, err_msg=name)


# ---------------------------------------------------------------------------
# any input: exit 0 or 2


def small_if_an_integer(text):
    """A faulted T must keep every run tiny: no junk reads as an integer above 40."""
    try:
        return int(text) <= 40
    except ValueError:
        return True


# short strings of characters that matter to the parsers (digits, signs, separators, brackets, an
# Arabic-Indic digit that int() reads, a non-ASCII letter), never a line break: a value stays on its line
JUNK = st.text(st.sampled_from("0123456789.,-+eE_x =[]#:nanif\t\u0663\u00e9"), max_size=8) | st.sampled_from(
    ["", "-1", "0", "1e-320", "-0.0", "1e308", "-1e308", "nan", "inf", "1_0", "..", "1, 1"]
)
JUNK = JUNK.filter(small_if_an_integer)


def floats_text(lo, hi):
    return st.floats(lo, hi).map(repr)


def joined(values, size):
    return st.lists(values, min_size=size, max_size=size).map(", ".join)


@st.composite
def with_faults(draw, lines, faulty):
    """``lines`` as text; if ``faulty``, with one to three faults: a value turned to junk,
    a line dropped, a line repeated, or a line of junk added."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3)) if faulty else 0):
        i = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(["value", "value", "drop", "repeat", "line"]))
        if fault == "value" and "=" in lines[i]:
            lines[i] = lines[i].split("=")[0] + "= " + draw(JUNK)
        elif fault == "drop":
            del lines[i]
        elif fault == "repeat":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, draw(JUNK))
    return "\n".join(lines) + "\n"


# T is at most 40, also after a fault: every run is tiny
@st.composite
def spec_texts(draw, faulty):
    lines = [
        "[experiment]",
        "plant = " + draw(st.sampled_from(["lin.scenario", "builtin:muscle"])),
        f"T = {draw(st.integers(12, 40))}",
        "seeds = " + ", ".join(map(str, draw(st.sets(st.integers(0, 2**40), min_size=1, max_size=3)))),
        "outputs = " + draw(st.sampled_from(["out", ".", ".."])),
        "emit = " + draw(st.sampled_from(cli.EMIT_MODES)),
        "input = " + draw(st.sampled_from(["white_gaussian", "uniform"])),
    ]
    values = {
        "eta": floats_text(1e-4, 2.0),
        "beta": floats_text(0.0, 1.0),
        "v": floats_text(0.0, 1.0),
        "power_interpretation": st.sampled_from(["elementwise_abs", "euclidean_norm"]),
        "epsilon_guard": floats_text(0.0, 1.0),
    }
    for name in draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2, unique=True)):
        variant = draw(st.sampled_from(VARIANTS))
        lines += [f"[filter {name}]", f"variant = {variant}"]
        keys = [key for key in VARIANT_FIELDS[variant] if key == "eta" or draw(st.booleans())]
        lines += [f"{key} = {draw(values[key])}" for key in keys]
    return draw(with_faults(lines, faulty))


@st.composite
def scenario_texts(draw, faulty):
    m, l = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    lines = [
        f"m = {m}",
        f"l = {l}",
        "basis = polynomial",
        "q = " + draw(joined(floats_text(-2.0, 2.0), m)),
        "c = " + draw(joined(floats_text(-2.0, 2.0), l)),
        f"noise_std = {draw(floats_text(0.0, 1.0))}",
        f"seed = {draw(st.integers(0, 9))}",
    ]
    return draw(with_faults(lines, faulty))


@st.composite
def command_lines(draw, faulty):
    """A command line with None in place of the spec path, each option in the ``--opt value`` or the
    ``--opt=value`` form; if ``faulty``, with one to three faults: an unknown or a repeated option, a
    value dropped, or a value turned to junk.  No option names a file to write."""
    value = floats_text(0.0, 1.0) | JUNK if faulty else floats_text(0.0, 1.0)
    grid = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4, unique=True).map(sorted)
    grid = grid.map(lambda g: ",".join(map(repr, g))) | st.lists(value, min_size=1, max_size=4).map(",".join)
    command, options = draw(
        st.sampled_from([
            ("simulate", []),
            ("sweep", [["--param", draw(st.sampled_from(cli.SWEEP_PARAMS))], ["--grid", draw(grid)]]),
            ("wiener", []),
            ("wiener", [["--ridge", draw(value)]]),
        ])
    )
    for _ in range(draw(st.integers(1, 3)) if faulty else 0):
        fault = draw(st.sampled_from(["unknown", "repeat", "drop", "value"]))
        if fault == "unknown":
            options.append([draw(st.sampled_from(["--loud", "--fail", "--par", "--ridge", "--format"])), draw(JUNK)])
        elif options:
            i = draw(st.integers(0, len(options) - 1))
            if fault == "repeat":
                options.insert(i, list(options[i]))
            else:
                options[i] = options[i][:1] if fault == "drop" else [options[i][0], draw(JUNK)]
    words = [option if draw(st.booleans()) else ["=".join(option)] for option in options]
    words.insert(draw(st.integers(0, len(words))), [None])  # the spec, before or after any option
    return [command, *(word for option in words for word in option)]


@st.composite
def cli_inputs(draw):
    """(spec text, scenario text, command line): mostly valid, with faults in one of the three."""
    faulty = draw(st.sampled_from(["spec", "scenario", "command"]))
    return (
        draw(spec_texts(faulty == "spec")),
        draw(scenario_texts(faulty == "scenario")),
        draw(command_lines(faulty == "command")),
    )


@given(cli_inputs())
@settings(max_examples=100, deadline=None)  # under 2 s
def test_any_input_ends_in_exit_0_or_2(inputs):
    spec_text, scenario_text, command = inputs
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(cli.OUTDIR_ENV, None)
        home = Path(tmp) / "a" / "b"  # an outputs of ".." still lands inside tmp
        home.mkdir(parents=True)
        (home / "lin.scenario").write_text(scenario_text, encoding="utf-8")
        (home / "run.spec").write_text(spec_text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([str(home / "run.spec") if word is None else word for word in command])
    assert code in (0, 2), err.getvalue()
