"""Command-line front-end: batch simulation, parameter sweeps, the equation
shape audit, and Wiener-solution export.

Exit codes: 0 success, 2 spec/parameter validation failure, 3 divergence
when --fail-on-diverge is set, 4 audit regression.  Specs and the scenarios
they name are read by one reader (``plant.read_sections``), so a fault in
either file exits 2 naming its file and line.  All artifacts are pure
functions of the spec file: UTF-8, LF line endings, %.17g float cells in
CSVs, sorted keys in JSON.  Every file written, artifact or ``--out``, goes
through one writer that moves a set into place only once all of it was
written; ``simulate`` then removes the stale files of its own family.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import re
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import analysis
from .errors import DataOverflow, ExperimentSpecError, HarxlabError, ScenarioError, SingularCorrelation, record
from .filters import VARIANT_FIELDS, FilterConfig
from .plant import (
    INPUT_KINDS, HarxPlant, Section, load_scenario, muscle_preset, read_sections, read_utf8, true_weight_vector,
)

OUTDIR_ENV = "HARXLAB_OUTDIR"
EMIT_MODES = ("curves", "summary", "both")
SWEEP_PARAMS = ("eta", "beta", "v")
_SWEEP_COLUMNS = ("param_value", "diverged_fraction", "terminal_weight_error_mean", "leak_fraction_mean")
# the keys of a [filter NAME] section: FilterConfig's fields but `dim`, in its order
_FILTER_FIELDS = tuple(field for field in fields(FilterConfig) if field.name != "dim")
_NAME = r"[A-Za-z0-9_\-]+"  # a [filter NAME]
# what `simulate` writes into its outdir: <NAME>_seed<k>.csv and <NAME>_summary.json
_SIMULATE_FILES = re.compile(_NAME + r"_(seed\d+\.csv|summary\.json)")
# the most a command may hold: the stacked regressors (seeds x (T - m) x n float64) and kept curves
# of `simulate` and `sweep`, the kept curves and their CSV texts while `simulate` renders them, or
# the inputs, the noise and one chunk of rows that `wiener` streams
MAX_REGRESSOR_BYTES = 2**30
# the most a curve CSV cell after a row's `iter` cell takes: %.17g, at most 24 characters, and its separator
_CSV_CELL_BYTES = 25

# Frozen at the first verified build; `harxlab audit` exits 4 on any drift.
GOLDEN_AUDIT: tuple[tuple[str, str], ...] = (
    (
        "eq8_original",
        "mismatch(mul-inner-dim: cannot multiply matrix(1,2) and vector(3): inner dimensions 2 and 3 differ)",
    ),
    ("eq10star_corrected", "well_formed(scalar)"),
    ("eq23", "mismatch(add-shape: cannot add scalar and vector(9))"),
    (
        "eq24",
        "mismatch(mul-vector-vector: cannot multiply vector(9) and vector(9): the plain product of two "
        "vectors is undefined (transpose one side for a dyad or an inner product))",
    ),
    ("eq25", "mismatch(equation-sides: left side is vector(9), right side is scalar)"),
    (
        "eq27",
        "mismatch(mul-vector-vector: cannot multiply vector(9) and vector(9): the plain product of two "
        "vectors is undefined (transpose one side for a dyad or an inner product))",
    ),
    ("F", "unsatisfiable(F: scalar vs matrix(9,9))"),
)


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    """Make a document JSON-clean: non-finite floats become null.  Documents
    hold native values only (``tolist``, ``float``, ``int``, ``bool``; a
    ``np.float64`` is a float), so no numpy type is converted here."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def _dumps(doc) -> str:
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Experiment spec files: the "key = value" text of plant.read_sections, every
# key inside one of these sections.
#
# [experiment]       plant, T, seeds, outputs, emit, input
# [filter NAME]      variant, eta, beta, v, power_interpretation, epsilon_guard


@record
class ExperimentSpec:
    """A validated experiment spec: the plant and the ``plant`` value that
    named it, the ``(name, config)`` of each ``[filter NAME]`` in file
    order, and the run length, seeds, output directory (beside the spec),
    ``emit`` mode and input kind."""

    experiment: Section  # the [experiment] section, which places a fault of the spec on its key's line
    plant: HarxPlant
    plant_ref: str
    filters: tuple[tuple[str, FilterConfig], ...]
    T: int
    seeds: tuple[int, ...]
    outputs: Path
    emit: str
    input_kind: str


def _filter_config(fields: dict, section: Section) -> FilterConfig:
    """Build a FilterConfig from ``fields``; FilterConfig states every range.

    The CLI adds one rule of its own, eta > 0.  A ValueError becomes a fault
    of ``section`` on the line of the field it names.
    """
    with section.located():
        if not fields["eta"] > 0.0:
            raise ValueError(f"eta must be > 0, got {fields['eta']}")
        return FilterConfig(**fields)


def load_experiment_spec(path) -> ExperimentSpec:
    """Parse and validate an experiment spec; every failure names the field
    and carries the offending line."""
    spec_path = Path(path)
    try:
        text = read_utf8(spec_path, ExperimentSpecError)
    except OSError as exc:
        raise ExperimentSpecError(str(exc), str(spec_path)) from None
    pstr = str(spec_path)

    loose, *sections = read_sections(text, pstr, ExperimentSpecError)
    if loose.lines:
        raise loose.fail("key outside any [section]", next(iter(loose.lines)))
    exp = None
    filter_sections: dict[str, Section] = {}
    for section in sections:
        if section.name == "experiment":
            if exp is not None:
                raise section.fail("duplicate [experiment] section")
            exp = section
        elif (parts := section.name.split(None, 1))[:1] == ["filter"]:
            if len(parts) != 2 or not re.fullmatch(_NAME, parts[1]):
                raise section.fail("filter section must be named like [filter NAME]")
            if parts[1] in filter_sections:
                raise section.fail(f"duplicate filter name {parts[1]!r}")
            filter_sections[parts[1]] = section
        else:
            raise section.fail(f"unknown section [{section.name}]")

    if exp is None:
        raise ExperimentSpecError("missing [experiment] section", pstr)
    if not filter_sections:
        raise ExperimentSpecError("at least one [filter NAME] section is required", pstr)

    plant_ref = exp.take("plant")
    if plant_ref == "builtin:muscle":
        plant = muscle_preset()
    else:
        scenario_path = os.path.realpath(spec_path.parent / plant_ref)  # a symlink loop fails in open, not here
        try:
            plant = load_scenario(scenario_path)
        except OSError as exc:
            raise exp.fail(f"plant: {exc}", "plant") from None

    T = exp.take("T", int, "an integer")
    if T - plant.m < plant.n:
        raise exp.fail(
            f"T must be >= m + n = {plant.m + plant.n}: after the plant memory m={plant.m}, a full-rank "
            f"correlation matrix needs n={plant.n} regressor rows; got T={T}",
            "T",
        )

    seeds = exp.take("seeds", lambda value: tuple(int(s) for s in value.split(",")), "comma-separated integers")
    if len(set(seeds)) != len(seeds):
        raise exp.fail("seeds must be distinct", "seeds")
    if min(seeds) < 0:
        raise exp.fail(f"seeds must be >= 0, got {min(seeds)}", "seeds")

    outputs = exp.take("outputs", default="harxlab_out")
    if os.path.realpath(spec_path.parent / outputs) == os.path.realpath(spec_path.parent):  # simulate would clear it
        raise exp.fail(f"outputs must name a directory other than the spec's own, got {outputs!r}", "outputs")
    emit = exp.take("emit", default="both")
    if emit not in EMIT_MODES:
        raise exp.fail(f"emit must be one of {EMIT_MODES}, got {emit!r}", "emit")
    input_kind = exp.take("input", default="white_gaussian")
    if input_kind not in INPUT_KINDS:
        raise exp.fail(f"input must be one of {INPUT_KINDS}, got {input_kind!r}", "input")
    exp.reject_unknown()

    filters = []
    for name, section in filter_sections.items():
        given = {"dim": plant.n}
        for field in _FILTER_FIELDS:
            if field.name in section.values or field.default is MISSING:
                given[field.name] = section.take(field.name, str if field.type == "str" else float, "a number")
        section.reject_unknown()
        read = VARIANT_FIELDS.get(given["variant"], section.lines)  # FilterConfig names an unknown variant
        ignored = [key for key in section.lines if key not in ("variant", *read)]  # in line order
        if ignored:
            message = f"{ignored[0]} is not read by variant {given['variant']!r}, which reads {', '.join(read)}"
            raise section.fail(message, ignored[0])
        filters.append((name, _filter_config(given, section)))

    return ExperimentSpec(
        experiment=exp,
        plant=plant,
        plant_ref=plant_ref,
        filters=tuple(filters),
        T=T,
        seeds=seeds,
        outputs=spec_path.parent / outputs,
        emit=emit,
        input_kind=input_kind,
    )


def _check_memory(spec: ExperimentSpec, cfgs=()) -> int:
    """The bytes ``simulate`` or ``sweep`` would hold at most; fail on the T
    line if that is more than MAX_REGRESSOR_BYTES.

    ``cfgs`` are the configs whose curves a command keeps: ``simulate`` keeps
    them only to render curve CSVs, ``sweep`` never.  While the filters run, a
    command holds the regressors and the kept curves of every seed
    (``analysis.curves_per_seed``, T - m float64 each).  ``simulate`` renders
    after it freed the regressors, and then holds the curves, every CSV text,
    the two cached templates (real and signed) and one record's values as
    Python floats in a tuple, at most three a row of 32 bytes each.  A text or
    template row takes at most its ``iter`` cell and three _CSV_CELL_BYTES."""
    N, n, S = spec.T - spec.plant.m, spec.plant.n, len(spec.seeds)
    curves = S * analysis.curves_per_seed(cfgs)
    plus = f" plus {curves} curve(s) of T - m float64," if cfgs else ""
    held = f"the regressors of {S} seed(s), (T - m) x n = {N} x {n} float64 each,{plus}"
    size = (S * n + curves) * N * 8
    csvs, row = S * len(cfgs), len(str(N)) + 1 + 3 * _CSV_CELL_BYTES
    render = curves * N * 8 + (csvs + 2) * (N + 1) * row + 3 * N * 32 if cfgs else 0
    if render > size:
        size, held = render, f"rendering {csvs} curve CSV(s) of {N} rows, with their {curves} curve(s),"
    return _bounded(spec, size, held)


def _check_stream_memory(spec: ExperimentSpec) -> int:
    """The bytes ``wiener`` would hold at most, its T inputs, one chunk of
    rows, their outputs and their noise, and the chunk's basis window; fail
    on the T line if that is more than MAX_REGRESSOR_BYTES."""
    N, n, l = spec.T - spec.plant.m, spec.plant.n, spec.plant.basis.l
    rows = min(N, analysis._chunk_rows(n))
    window = rows + spec.plant.m - 1
    held = (f"the {spec.T} inputs, one chunk of {rows} rows of n + 2 = {n + 2} float64 (the rows, their outputs "
            f"and noise) and a basis window of {window} x l = {window * l} float64,")
    return _bounded(spec, (spec.T + rows * (n + 2) + window * l) * 8, held)


def _bounded(spec: ExperimentSpec, size: int, held: str) -> int:
    """``size``, the bytes that ``held`` takes; fail on the T line if that is
    more than MAX_REGRESSOR_BYTES."""
    if size > MAX_REGRESSOR_BYTES:
        message = f"T={spec.T} is too large: {held} would take {size} bytes, more than {MAX_REGRESSOR_BYTES}"
        raise spec.experiment.fail(message, "T")
    return size


# ---------------------------------------------------------------------------
# Artifact writing


def _resolve_outdir(spec: ExperimentSpec) -> Path:
    override = os.environ.get(OUTDIR_ENV)
    return Path(override) if override else spec.outputs


def _write_artifacts(
    directory: Path, files: dict[str, str], fault: str, path: str, owned: re.Pattern | None = None
) -> None:
    """Write ``files`` into ``directory``, each first to a fresh hidden name
    ``.{name}.{random hex}.tmp`` beside its target, which ``owned`` never
    matches, so concurrent runs never remove each other's files.  Once all
    are written, each is moved over its target with os.replace, and then the
    other files whose whole name ``owned`` matches, an earlier run's files
    of the same family, are removed.  An OSError raises
    ExperimentSpecError(f"{fault}: {exc}") naming ``path``."""
    temps = {name: directory / f".{name}.{os.urandom(8).hex()}.tmp" for name in sorted(files)}
    try:
        directory.mkdir(parents=True, exist_ok=True)
        try:
            for name, tmp in temps.items():
                tmp.write_bytes(files[name].encode("utf-8"))
            for name, tmp in temps.items():
                os.replace(tmp, directory / name)
        finally:
            for tmp in temps.values():
                tmp.unlink(missing_ok=True)
        if owned:
            for stale in directory.iterdir():
                if stale.name not in files and owned.fullmatch(stale.name) and stale.is_file():
                    stale.unlink()
    except OSError as exc:
        raise ExperimentSpecError(f"{fault}: {exc}", path) from None


def _write_out(path: str, text: str) -> None:
    """Write ``text`` to an ``--out`` path, all or nothing."""
    target = Path(path)
    if not target.name or path.endswith(("/", os.sep)):  # "/", "." or a directory's "name/"
        raise ExperimentSpecError("--out: cannot write: not a file name", path)
    _write_artifacts(target.parent, {target.name: text}, "--out: cannot write", path)


@contextlib.contextmanager
def _plant_data(spec: ExperimentSpec):
    """Report overflowing data or a singular correlation as a fault of the spec's plant line."""
    try:
        yield
    except (DataOverflow, SingularCorrelation) as exc:
        raise spec.experiment.fail(f"plant: {exc}", "plant") from None


def _seed_data(spec: ExperimentSpec) -> analysis.SeedData:
    """Every seed's dataset of ``spec``, simulated once."""
    with _plant_data(spec):
        return analysis.simulate_seeds(spec.plant, spec.T, spec.seeds, spec.input_kind)


# ---------------------------------------------------------------------------
# simulate


def _summary_doc(name: str, cfg: FilterConfig, spec: ExperimentSpec, summaries) -> dict:
    per_seed = [{"seed": seed, **summary} for seed, summary in zip(spec.seeds, summaries)]
    aggregate = analysis.seed_aggregate(per_seed)
    del aggregate["diverged_fraction"]  # the summary reports the count
    return {
        "config": {"name": name, **vars(cfg)},
        "plant": {
            "scenario": spec.plant_ref,
            "m": spec.plant.m,
            "l": spec.plant.basis.l,
            "noise_std": spec.plant.noise_std,
            "seed": spec.plant.seed,
        },
        "T": spec.T,
        "seeds": list(spec.seeds),
        "input": spec.input_kind,
        "per_seed": per_seed,
        "aggregate": aggregate,
    }


def cmd_simulate(args) -> int:
    spec = load_experiment_spec(args.spec)
    cfgs = [cfg for _, cfg in spec.filters]
    keep = spec.emit in ("curves", "both")  # the curves are kept only for the CSVs
    _check_memory(spec, cfgs if keep else ())
    data = _seed_data(spec)
    batch = analysis.run_batch(cfgs, data.X, data.outputs, data.omega, curves=keep)
    del data  # the regressors are freed before the artifacts are built
    summaries = [[analysis.run_summary(rec) for rec in runs] for runs in batch] if keep else batch
    any_diverged = any(summary["diverged"] for runs in summaries for summary in runs)
    files: dict[str, str] = {}
    for (name, cfg), runs, sums in zip(spec.filters, batch, summaries):
        if keep:
            for seed, rec in zip(spec.seeds, runs):
                files[f"{name}_seed{seed}.csv"] = analysis.run_record_csv(rec)
        if spec.emit in ("summary", "both"):
            files[f"{name}_summary.json"] = _dumps(_summary_doc(name, cfg, spec, sums))
    outdir = _resolve_outdir(spec)
    _write_artifacts(outdir, files, "cannot write artifacts", str(outdir), owned=_SIMULATE_FILES)
    print(f"wrote {len(files)} artifact(s) to {outdir}")
    if any_diverged and args.fail_on_diverge:
        print("at least one run diverged", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# audit


def cmd_audit(args) -> int:
    from . import shapecheck  # only `audit` loads the checker

    rows = shapecheck.audit_corpus()  # evaluated once, for the table and the document alike
    got = [(eq_id, verdict.describe()) for eq_id, verdict in rows]
    document = _dumps(shapecheck.audit_report(rows))
    if args.format == "json":
        print(document, end="")
    else:
        width = max(len(eq_id) for eq_id, _ in got)
        print(f"{'equation':<{width}}  verdict")
        for eq_id, described in got:
            print(f"{eq_id:<{width}}  {described}")
    if args.out:
        _write_out(args.out, document)
    expected = list(GOLDEN_AUDIT)
    if got != expected:
        print("audit regression against the golden verdict table:", file=sys.stderr)
        for i, (have, want) in enumerate(itertools.zip_longest(got, expected)):
            if have != want:
                print(f"  row {i}: expected {want}, got {have}", file=sys.stderr)
        return 4
    return 0


def __getattr__(name: str):
    """``cli.shapecheck`` loads the checker on first use; no other name resolves here."""
    if name == "shapecheck":
        from . import shapecheck

        return shapecheck
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# sweep

def cmd_sweep(args) -> int:
    spec = load_experiment_spec(args.spec)
    param = args.param
    name, cfg = spec.filters[0]
    if param not in VARIANT_FIELDS[cfg.variant]:
        raise ExperimentSpecError(f"--param: variant {cfg.variant!r} of filter {name!r} does not read {param}")
    _check_memory(spec)
    grid_fault = Section(ExperimentSpecError, "--grid")
    try:
        grid = [float(x) for x in args.grid.split(",")]
    except ValueError:
        raise grid_fault.fail(f"{param} values must be comma-separated numbers, got {args.grid!r}") from None
    configs = [_filter_config({**vars(cfg), param: value}, grid_fault) for value in grid]

    labels = [_g(value) for value in grid]
    lambda_max = None
    if param == "eta":
        with grid_fault.located(), _plant_data(spec):
            probe = analysis.stability_probe(spec.plant, cfg, grid, spec.T, spec.seeds, spec.input_kind)
        cells, lambda_max = probe.cells, probe.lambda_max
        labels.append("2/lambda_max")
    else:
        cells = analysis.sweep_cells(configs, _seed_data(spec))
    rows = [(label, *(cell[column] for column in _SWEEP_COLUMNS[1:])) for label, cell in zip(labels, cells)]

    lines = [",".join(_SWEEP_COLUMNS)]
    lines += [",".join([label, *map(_g, metrics)]) for label, *metrics in rows]
    summary = {
        "param": param,
        "grid": grid,
        "config": name,
        "T": spec.T,
        "seeds": list(spec.seeds),
        "lambda_max": lambda_max,
        "eta_reference_2_over_lambda_max": 2.0 / lambda_max if lambda_max else None,
        "cells": [dict(zip(_SWEEP_COLUMNS, row)) for row in rows],
    }
    outdir = _resolve_outdir(spec)
    files = {f"sweep_{param}.csv": "\n".join(lines) + "\n", f"sweep_{param}.json": _dumps(summary)}
    _write_artifacts(outdir, files, "cannot write artifacts", str(outdir))
    print(f"wrote sweep_{param}.csv and sweep_{param}.json to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# wiener


def cmd_wiener(args) -> int:
    spec = load_experiment_spec(args.spec)
    _check_stream_memory(spec)
    with _plant_data(spec):
        est = analysis.stream_correlations(
            spec.plant, spec.input_kind, T=spec.T, rng=np.random.default_rng(spec.seeds[0])
        )
        try:
            omega = analysis.wiener_solution(est, ridge=args.ridge)
        except ValueError as exc:
            raise ExperimentSpecError(str(exc), "--ridge") from None
    doc = analysis.correlation_summary(est, omega_opt=omega)
    doc["ridge"] = args.ridge
    doc["true_weight_vector"] = true_weight_vector(spec.plant).tolist()
    text = _dumps(doc)
    print(text, end="")
    if args.out:
        _write_out(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# entry points


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harxlab",
        description="Adaptive-filtering experiments on Hammerstein ARX plants, plus the equation shape audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run every (filter, seed) cell of an experiment spec")
    p_sim.add_argument("spec", help="experiment spec file")
    p_sim.add_argument("--fail-on-diverge", action="store_true", help="exit 3 if any run diverged")
    p_sim.set_defaults(func=cmd_simulate)

    p_audit = sub.add_parser("audit", help="run the equation shape audit against the golden table")
    p_audit.add_argument("--format", choices=("text", "json"), default="text")
    p_audit.add_argument("--out", help="also write the JSON report to this path")
    p_audit.set_defaults(func=cmd_audit)

    p_sweep = sub.add_parser("sweep", help="sweep eta, beta, or v for the first filter config")
    p_sweep.add_argument("spec", help="experiment spec file")
    p_sweep.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p_sweep.add_argument("--grid", required=True, help="comma-separated parameter values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_wiener = sub.add_parser("wiener", help="emit empirical correlations and the Wiener solution as JSON")
    p_wiener.add_argument("spec", help="experiment spec file")
    p_wiener.add_argument("--ridge", type=float, default=0.0)
    p_wiener.add_argument("--out", help="also write the JSON document to this path")
    p_wiener.set_defaults(func=cmd_wiener)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ExperimentSpecError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HarxlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
