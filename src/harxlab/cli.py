"""Command-line front-end: batch simulation, parameter sweeps, the equation
shape audit, and Wiener-solution export.

Exit codes: 0 success, 1 a HarxlabError no command reports as a fault of
its input (no known input reaches it), 2 usage error or spec/parameter
validation failure, 3 divergence when --fail-on-diverge is set, 4 audit
regression.
``main`` returns them and raises no SystemExit.  Specs and the scenarios
they name are read by one reader (``plant.read_sections``), so a fault in
either file exits 2 naming its file and line.  All artifacts are pure
functions of the spec file: UTF-8, LF line endings, %.17g float cells in
CSVs, sorted keys in JSON.  Every file written, artifact or ``--out``, goes
through one writer that moves a set into place only once all of it was
written; ``simulate`` then removes the stale files of its own family.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from types import SimpleNamespace

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
# the most a command may hold (`_check_memory`): one seed's inputs, one chunk of rows and the correlation
# matrices, and for `simulate` and `sweep` every seed's rows and outputs and the kept curves, or the curves
# and their CSV texts while `simulate` renders them
MAX_REGRESSOR_BYTES = 2**30
# the n x n float64 matrices a seed the correlations hold at once: 3.6 to 4.3 traced at n = 182 to 800, rounded up
_CORRELATION_MATRICES = 5
# what `analysis.run_batch` holds at once, traced up to 16,040 rows, each rounded up: n-vectors of float64 a row (up to
# 17 to 19 at n = 1 to 1,000), bytes a row for its record (up to 1,500 at n = 1), and time blocks of
# `analysis._BLOCK_BYTES` (up to 7.25 at n = 1, 4.63 at n = 2, 2.51 at n = 10 and 2.03 at n = 100: one block's
# history, regressors, outputs and per-step diagnostics, for the finished block is dropped before the next is made)
_BATCH_ROW_VECTORS, _BATCH_ROW_BYTES, _BATCH_BLOCKS = 20, 2000, 8
# the bytes an entry of R takes while `wiener` renders its JSON document
_DOCUMENT_ENTRY_BYTES = 160
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
    emit = exp.take("emit", EMIT_MODES, f"one of {EMIT_MODES}", "both")
    input_kind = exp.take("input", INPUT_KINDS, f"one of {INPUT_KINDS}", "white_gaussian")
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


def _check_memory(spec: ExperimentSpec, cfgs=(), curves: bool = False) -> int:
    """The bytes a command would hold at most, running the batch of ``cfgs``
    on every seed of the spec and keeping its curves when ``curves`` is
    true; fail on the T line if that is more than MAX_REGRESSOR_BYTES.

    Every command runs the chunk loop of ``analysis._simulate``, which holds
    a seed's T inputs, one chunk of rows, their outputs and their noise, and
    the chunk's basis window, and sums the correlations, which hold
    _CORRELATION_MATRICES n x n float64 a seed (of one seed for ``wiener``).
    A command with a batch (``simulate`` and ``sweep``) also stacks every
    seed's rows and outputs and, while the batch runs, the curves it keeps
    (``analysis.curves_per_seed``, T - m float64 each) and what
    ``analysis.run_batch`` holds: _BATCH_ROW_VECTORS n-vectors of float64 a
    row, a signed row counted twice for its imaginary parts, _BATCH_ROW_BYTES
    a row for its record, and _BATCH_BLOCKS blocks of
    ``analysis._BLOCK_BYTES``: one time block's weight history, regressors,
    outputs and, taking a block each at n = 1, per-step diagnostics.
    ``simulate`` renders after it freed the rows, and then holds the curves,
    every CSV text, the two cached templates (real and signed) and one
    record's values as Python floats in a tuple, at most three a row of 32
    bytes each; the larger of the two phases counts.  A text or template
    row takes at most its ``iter`` cell and three _CSV_CELL_BYTES.  The
    command without a batch (``wiener``) renders R's JSON document,
    _DOCUMENT_ENTRY_BYTES an entry."""
    T, N, n, l = spec.T, spec.T - spec.plant.m, spec.plant.n, spec.plant.basis.l
    S = len(spec.seeds) if cfgs else 0
    rows, R, per_seed = min(N, analysis._chunk_rows(n)), S * len(cfgs), analysis.curves_per_seed(cfgs)
    kept, Rs = S * per_seed if curves else 0, S * (per_seed - 2 * len(cfgs))  # a signed row keeps a third curve
    window, matrices = rows + spec.plant.m - 1, _CORRELATION_MATRICES * max(S, 1)
    batch = _BATCH_ROW_VECTORS * (R + Rs) * n * 8 + _BATCH_ROW_BYTES * R + _BATCH_BLOCKS * analysis._BLOCK_BYTES
    stack = (S * (n + 1) + kept) * N * 8 + batch if cfgs else 0
    row = len(str(N)) + 1 + 3 * _CSV_CELL_BYTES
    render = kept * N * 8 + (R + 2) * (N + 1) * row + 3 * N * 32 if curves else 0  # a CSV a row
    document = 0 if cfgs else n * n * _DOCUMENT_ENTRY_BYTES
    size = (T + rows * (n + 2) + window * l + matrices * n * n) * 8 + max(stack, render, document)
    if size > MAX_REGRESSOR_BYTES:
        held = (f"the {T} inputs, one chunk of {rows} rows of n + 2 = {n + 2} float64 (the rows, their outputs and "
                f"noise), a basis window of {window} x l = {window * l} float64 and {matrices} correlation matrices "
                f"of n x n = {n} x {n} float64")
        if render > stack:
            held += f"; rendering {R} curve CSV(s) of {N} rows, with their {kept} curve(s)"
        elif cfgs:
            held += f"; the rows and outputs of {S} seed(s), (T - m) x (n + 1) = {N} x {n + 1} float64 each"
            held += f", {kept} curve(s) of T - m float64" if kept else ""
            held += f" and a batch of {R} row(s), {Rs} of them signed"
        else:
            held += f"; a JSON document of R's {n * n} entries"
        message = f"T={T} is too large: {held}, would take {size} bytes, more than {MAX_REGRESSOR_BYTES}"
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


def _summary_doc(name: str, cfg: FilterConfig, spec: ExperimentSpec, tally, rows: slice) -> dict:
    """The summary document of one filter, the rows ``rows`` of the batch's tally."""
    per_seed = [{"seed": seed, **summary} for seed, summary in zip(spec.seeds, tally.summaries(rows))]
    aggregate = analysis.seed_aggregate(tally, rows)
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
    _check_memory(spec, cfgs, curves=keep)
    data = _seed_data(spec)
    tally, records = analysis.run_batch(cfgs, data.X, data.outputs, data.omega, curves=keep)
    del data  # the regressors are freed before the artifacts are built
    S = len(spec.seeds)
    files: dict[str, str] = {}
    for c, (name, cfg) in enumerate(spec.filters):
        if keep:
            for seed, rec in zip(spec.seeds, records[c]):
                files[f"{name}_seed{seed}.csv"] = analysis.run_record_csv(rec)
        if spec.emit in ("summary", "both"):
            files[f"{name}_summary.json"] = _dumps(_summary_doc(name, cfg, spec, tally, slice(c * S, c * S + S)))
    outdir = _resolve_outdir(spec)
    _write_artifacts(outdir, files, "cannot write artifacts", str(outdir), owned=_SIMULATE_FILES)
    print(f"wrote {len(files)} artifact(s) to {outdir}")
    if tally.diverged.any() and args.fail_on_diverge:
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
    # the grid's values, counted before they are parsed, and for eta the 2/lambda_max reference
    _check_memory(spec, [cfg] * (args.grid.count(",") + 1 + (param == "eta")))
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
    _check_memory(spec)
    if not 0.0 <= args.ridge < np.inf:  # checked before the stream, not after it in wiener_solution
        raise ExperimentSpecError(f"ridge must be finite and >= 0, got {args.ridge}", "--ridge")
    with _plant_data(spec):
        est = analysis.stream_correlations(
            spec.plant, spec.input_kind, T=spec.T, rng=np.random.default_rng(spec.seeds[0])
        )
        omega = analysis.wiener_solution(est, ridge=args.ridge)
    text = _dumps({
        "true_weight_vector": true_weight_vector(spec.plant).tolist(),
        "sample_count": est.sample_count,
        "R": est.R.tolist(),
        "p": est.p.tolist(),
        "eigenvalues": est.eigenvalues.tolist(),
        "lambda_max": est.lambda_max,
        "eta_stability_reference": 2.0 / est.lambda_max,
        "ridge": args.ridge,
        "omega_opt": omega.tolist(),
    })
    print(text, end="")
    if args.out:
        _write_out(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# entry points


USAGE = """\
usage: harxlab simulate SPEC [--fail-on-diverge]
       harxlab audit [--format text|json] [--out PATH]
       harxlab sweep SPEC --param eta|beta|v --grid V1,V2,...
       harxlab wiener SPEC [--ridge R] [--out PATH]
       harxlab -h | --help
"""

# each command: its function, whether it reads a SPEC path, and its options, each as (kind, default) where
# the kind is None for a flag, a tuple of the values allowed, or a converter; a MISSING default is required
COMMANDS = {
    "simulate": (cmd_simulate, True, {"--fail-on-diverge": (None, False)}),
    "audit": (cmd_audit, False, {"--format": (("text", "json"), "text"), "--out": (str, None)}),
    "sweep": (cmd_sweep, True, {"--param": (SWEEP_PARAMS, MISSING), "--grid": (str, MISSING)}),
    "wiener": (cmd_wiener, True, {"--ridge": (float, 0.0), "--out": (str, None)}),
}


def _read_argv(argv: list[str]):
    """The command ``argv`` names and the namespace its function reads:
    ``spec`` and one attribute per option (``--fail-on-diverge`` as
    ``fail_on_diverge``).  Options match by full name, as ``--opt value`` or
    ``--opt=value``, before or after the spec.  A ValueError names the
    argument at fault."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"unknown command {argv[0]!r}" if argv else "missing command")
    func, takes_spec, options = COMMANDS[argv[0]]
    given, paths, rest = {}, [], iter(argv[1:])
    for arg in rest:
        if not arg.startswith("--"):
            paths.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in options or name in given:
            raise ValueError(f"{'repeated' if name in given else 'unknown'} option {name} of {argv[0]}")
        kind, _ = options[name]
        if kind is None:
            if eq:
                raise ValueError(f"{name} takes no value, got {arg!r}")
            value = True
        elif not eq and (value := next(rest, "--")).startswith("--"):  # the value is the next argument
            raise ValueError(f"{name} needs a value")
        elif isinstance(kind, tuple):
            if value not in kind:
                raise ValueError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
        else:
            try:
                value = kind(value)
            except ValueError:
                raise ValueError(f"{name} must be a number, got {value!r}") from None
        given[name] = value
    if len(paths) != takes_spec:
        raise ValueError(f"unexpected argument {paths[takes_spec]!r}" if paths else f"{argv[0]} needs a SPEC path")
    for name, (_, default) in options.items():
        if default is MISSING and name not in given:
            raise ValueError(f"{argv[0]} needs {name}")
    values = {name[2:].replace("-", "_"): given.get(name, default) for name, (_, default) in options.items()}
    return func, SimpleNamespace(spec=paths[0] if paths else None, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return 0
    try:
        func, args = _read_argv(argv)
    except ValueError as exc:
        print(f"{USAGE}error: {exc}", file=sys.stderr)
        return 2
    try:
        return func(args)
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
