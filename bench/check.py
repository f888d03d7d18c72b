"""Compare a workload's artifacts with the reference model's expectations.

Numeric cells and JSON numbers must agree within ``RTOL`` relative plus
``ATOL`` absolute; NaN must meet NaN and an infinity the same infinity.
Everything else must match exactly: the set of files, CSV headers, row
counts and iteration columns, JSON keys, strings, integers (iterations,
``complex_events``, ``first_leak_iter``) and booleans (``diverged``).
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

# A few ulps of drift per step, compounded over 10^4 steps, stays far below
# these; a real change in the update rule or the data does not.
RTOL = 1e-9
ATOL = 1e-12

CURVE_HEADER = "iter,mse,weight_error,imag_norm"
SWEEP_HEADER = "param_value,diverged_fraction,terminal_weight_error_mean,leak_fraction_mean"
REAL_VARIANTS = ("lms", "momentum_lms", "mflms_modulus")


def close(actual, expected) -> np.ndarray:
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return (a == e) | (np.abs(a - e) <= ATOL + RTOL * np.abs(e)) | (np.isnan(a) & np.isnan(e))


def compare_json(actual, expected, where: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} != {sorted(expected)}"]
        return [msg for k in expected for msg in compare_json(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        return [msg for i, (a, e) in enumerate(zip(actual, expected)) for msg in compare_json(a, e, f"{where}[{i}]")]
    if isinstance(expected, float):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)) or not close(actual, expected):
            return [f"{where}: {actual!r} != {expected!r}"]
        return []
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r} (exact)"]
    return []


def compare_curve_csv(text: str, expected: np.ndarray, where: str) -> list[str]:
    header, _, body = text.partition("\n")
    if header != CURVE_HEADER:
        return [f"{where}: header {header!r}"]
    actual = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2) if body else np.empty((0, 4))
    if actual.shape != expected.shape:
        return [f"{where}: {actual.shape[0]} rows, expected {expected.shape[0]}"]
    if not np.array_equal(actual[:, 0], expected[:, 0]):
        return [f"{where}: iter column differs"]
    bad = np.argwhere(~close(actual[:, 1:], expected[:, 1:]))
    return [f"{where}: row {r} col {c + 1}: {float(actual[r, c + 1])!r} != {float(expected[r, c + 1])!r}" for r, c in bad[:5]]


def compare_sweep_csv(text: str, expected: list[tuple], where: str) -> list[str]:
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "" or len(lines) != len(expected) + 2:
        return [f"{where}: header or row count differs"]
    errors = []
    for i, (line, (label, *cells)) in enumerate(zip(lines[1:], expected)):
        got = line.split(",")
        if got[0] != label or len(got) != 4 or not close([float(x) for x in got[1:]], cells).all():
            errors.append(f"{where}: row {i}: {line!r} != {label},{cells}")
    return errors


def check_artifacts(outdir: Path, expected: dict, variants: dict[str, str]) -> list[str]:
    """Every difference between ``outdir`` and ``expected``; empty when they agree.

    ``variants`` maps filter names to variants.  On top of the comparison,
    every ``flms_signed`` run must leak into the complex plane and every run
    of a real variant must keep an imaginary norm of exactly zero.
    """
    present = {p.name for p in outdir.iterdir()} if outdir.is_dir() else set()
    if present != set(expected):
        return [f"artifact set: missing {sorted(set(expected) - present)}, extra {sorted(present - set(expected))}"]
    errors = []
    for name, want in sorted(expected.items()):
        text = (outdir / name).read_text("utf-8")
        if name.endswith(".json"):
            errors += compare_json(json.loads(text), want, name)
        elif name.startswith("sweep_"):
            errors += compare_sweep_csv(text, want, name)
        else:
            errors += compare_curve_csv(text, want, name)
        errors += _leak_invariants(name, text, variants)
    return errors


def _leak_invariants(name: str, text: str, variants: dict[str, str]) -> list[str]:
    if name.startswith("sweep_") or name == "wiener.json":
        return []
    filt = name.rsplit("_", 1)[0]
    variant = variants[filt]
    if name.endswith("_summary.json"):
        per_seed = json.loads(text)["per_seed"]
        if variant == "flms_signed" and not all(p["complex_events"] > 0 for p in per_seed):
            return [f"{name}: a flms_signed seed never left the real axis"]
        if variant in REAL_VARIANTS and any(p["max_imag"] != 0.0 or p["complex_events"] for p in per_seed):
            return [f"{name}: a real variant carried imaginary mass"]
    elif variant in REAL_VARIANTS:
        imag = [line.rsplit(",", 1)[1] for line in text.split("\n")[1:-1]]
        if any(float(x) != 0.0 for x in imag):
            return [f"{name}: imag_norm is not exactly 0 for a real variant"]
    return []


def hash_files(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}
