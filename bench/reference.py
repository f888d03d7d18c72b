"""Reference model of every artifact the workloads write, for any seed.

This is a frozen transcription of harxlab's per-step path as it stood when
the benchmark was defined: the plant simulation, the correlation estimate and
Wiener solve, and the four update rules of ``filters.step``.  The update
rules advance every (config, seed) row at once, but each element-wise
operation is the one the per-step code performs, in the same order.  Only
inner products and norms sum in another order, so the model agrees with the
program to a few ulps, and ``check.py`` compares within a stated tolerance.
The model never imports harxlab: later changes to the program cannot move it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import SCENARIOS, Workload

DIVERGENCE_THRESHOLD = 1e12
LEAK_EPS = 1e-15


@dataclass(frozen=True)
class Plant:
    m: int
    l: int
    q: tuple[float, ...]
    c: tuple[float, ...]
    noise_std: float
    seed: int

    @property
    def n(self) -> int:
        return self.m * self.l

    @property
    def weights(self) -> np.ndarray:
        return np.kron(np.array(self.q), np.array(self.c))


def load_plant(path: Path) -> Plant:
    """Read a polynomial-basis scenario file (flat ``key = value`` lines)."""
    kv = {}
    for raw in Path(path).read_text("utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    floats = lambda key: tuple(float(x) for x in kv[key].split(","))  # noqa: E731
    return Plant(
        m=int(kv["m"]),
        l=int(kv["l"]),
        q=floats("q"),
        c=floats("c"),
        noise_std=float(kv.get("noise_std", "0")),
        seed=int(kv.get("seed", "0")),
    )


def simulate(plant: Plant, T: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Regressor matrix X (T - m rows) and desired outputs for white Gaussian input."""
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal(T)
    F = np.power(inputs[:, None], np.arange(1, plant.l + 1, dtype=np.float64)[None, :])
    X = np.concatenate([F[plant.m - i : T - i] for i in range(1, plant.m + 1)], axis=1)
    d = X @ plant.weights
    if plant.noise_std > 0.0:
        d = d + plant.noise_std * rng.standard_normal(T - plant.m)
    return X, d


def correlations(X: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R, p and the eigenvalues of R sorted descending."""
    N = X.shape[0]
    R = X.T @ X / N
    R = 0.5 * (R + R.T)
    p = X.T @ d / N
    return R, p, np.linalg.eigvalsh(R)[::-1]


def wiener(X: np.ndarray, d: np.ndarray) -> np.ndarray:
    R, p, _ = correlations(X, d)
    return np.linalg.solve(R, p)


@dataclass
class Runs:
    """Learning curves of B runs; entries past a row's iteration count are NaN."""

    mse: np.ndarray
    werr: np.ndarray
    imag: np.ndarray
    iterations: np.ndarray
    diverged: np.ndarray
    complex_events: np.ndarray

    def curve(self, b: int, which: str) -> np.ndarray:
        return getattr(self, which)[b, : self.iterations[b]]

    def leak(self, b: int) -> tuple[int | None, float, float]:
        """(first_leak_iter, max_imag, leak_fraction), as complex_leak_report."""
        curve = self.curve(b, "imag")
        hot = curve > LEAK_EPS
        first = int(np.argmax(hot)) if hot.any() else None
        return first, float(np.max(curve)), float(np.mean(hot))


def run_rows(X: np.ndarray, d: np.ndarray, omega: np.ndarray, cfgs: list[dict]) -> Runs:
    """Advance B independent filters from zero weights through their data.

    ``X`` is (B, N, n), ``d`` (B, N), ``omega`` (B, n); ``cfgs`` holds one
    filter section (variant, eta, beta, v, ...) per row.  A row stops at the
    first step whose squared error, weight error or imaginary norm is
    non-finite or above 1e12, exactly as ``run_experiment`` does.
    """
    B, N, n = X.shape
    W = np.zeros((B, n), dtype=np.complex128)
    Wp = W.copy()
    mse = np.full((B, N), np.nan)
    werr = np.full((B, N), np.nan)
    imag = np.full((B, N), np.nan)
    iterations = np.full(B, N)
    diverged = np.zeros(B, dtype=bool)
    events = np.zeros(B, dtype=np.int64)
    active = np.ones(B, dtype=bool)

    col = lambda key, default: np.array([float(c.get(key, default)) for c in cfgs])[:, None]  # noqa: E731
    eta, beta, v, guard = col("eta", 0), col("beta", 0), col("v", 1.0), col("epsilon_guard", 0)
    exponent = 1.0 - v
    if any(c.get("power_interpretation", "elementwise_abs") != "elementwise_abs" for c in cfgs):
        raise ValueError("the model covers the elementwise_abs power interpretation only")
    variant = np.array([c["variant"] for c in cfgs])
    kinds = ("lms", "momentum_lms", "mflms_modulus", "flms_signed")
    groups = [(kind, np.flatnonzero(variant == kind)) for kind in kinds]

    with np.errstate(all="ignore"):
        for t in range(N):
            for kind, rows in groups:
                rows = rows[active[rows]]
                if rows.size == 0:
                    continue
                w, wp, psi = W[rows], Wp[rows], X[rows, t]
                err = d[rows, t] - np.einsum("bn,bn->b", psi, w.real)
                grad = (eta[rows, 0] * err)[:, None] * psi
                if kind == "lms":
                    new = w + grad
                else:
                    momentum = beta[rows] * (w - wp)
                    if kind == "momentum_lms":
                        new = w + momentum + grad
                    else:
                        if kind == "flms_signed":
                            factor = np.power(w.real.astype(np.complex128), exponent[rows])
                        else:
                            factor = np.power(np.maximum(np.abs(w.real), guard[rows]), exponent[rows])
                        new = w + momentum + grad * (1.0 + factor)
                diff = new.real - omega[rows]
                m_t = err * err
                e_t = np.sqrt(np.einsum("bn,bn->b", diff, diff))
                i_t = np.sqrt(np.einsum("bn,bn->b", new.imag, new.imag))
                mse[rows, t], werr[rows, t], imag[rows, t] = m_t, e_t, i_t
                events[rows] += np.max(np.abs(new.imag), axis=1) > 0.0
                Wp[rows], W[rows] = w, new
                latest = np.stack([m_t, e_t, i_t])
                bad = ~np.isfinite(latest).all(axis=0) | (np.nan_to_num(latest).max(axis=0) > DIVERGENCE_THRESHOLD)
                stopped = rows[bad]
                diverged[stopped] = True
                iterations[stopped] = t + 1
                active[stopped] = False
    return Runs(mse, werr, imag, iterations, diverged, events)


def _seed_data(plant: Plant, T: int, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = [simulate(plant, T, s) for s in seeds]
    X = np.stack([x for x, _ in data])
    d = np.stack([y for _, y in data])
    omega = np.stack([wiener(x, y) for x, y in data])
    return X, d, omega


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _cfg_doc(name: str, params: dict, n: int) -> dict:
    return {
        "name": name,
        "variant": params["variant"],
        "eta": float(params["eta"]),
        "beta": float(params.get("beta", 0.0)),
        "v": float(params.get("v", 1.0)),
        "power_interpretation": params.get("power_interpretation", "elementwise_abs"),
        "epsilon_guard": float(params.get("epsilon_guard", 0.0)),
        "dim": n,
    }


def expected_simulate(w: Workload, seed: int) -> tuple[dict, int]:
    """Expected artifacts ({name: CSV array or JSON doc}) and the update step count."""
    plant = load_plant(SCENARIOS / w.scenario)
    seeds = w.seeds(seed)
    X, d, omega = _seed_data(plant, w.T, seeds)
    F, S = len(w.filters), len(seeds)
    cfgs = [params for _, params in w.filters for _ in seeds]
    runs = run_rows(np.tile(X, (F, 1, 1)), np.tile(d, (F, 1)), np.tile(omega, (F, 1)), cfgs)
    files: dict = {}
    for f, (name, params) in enumerate(w.filters):
        per_seed = []
        for s, sd in enumerate(seeds):
            b = f * S + s
            k = int(runs.iterations[b])
            if w.emit in ("curves", "both"):
                files[f"{name}_seed{sd}.csv"] = np.column_stack(
                    [np.arange(k), runs.curve(b, "mse"), runs.curve(b, "werr"), runs.curve(b, "imag")]
                )
            first, max_imag, fraction = runs.leak(b)
            per_seed.append(
                {
                    "seed": sd,
                    "iterations": k,
                    "diverged": bool(runs.diverged[b]),
                    "terminal_mse": float(runs.mse[b, k - 1]),
                    "terminal_weight_error": float(runs.werr[b, k - 1]),
                    "complex_events": int(runs.complex_events[b]),
                    "max_imag": max_imag,
                    "first_leak_iter": first,
                    "leak_fraction": fraction,
                }
            )
        ok = [p for p in per_seed if not p["diverged"]]
        mean = lambda key: float(np.mean([p[key] for p in ok])) if ok else None  # noqa: E731
        doc = {
            "config": _cfg_doc(name, params, plant.n),
            "plant": {
                "scenario": w.plant_ref,
                "m": plant.m,
                "l": plant.l,
                "noise_std": plant.noise_std,
                "seed": plant.seed,
            },
            "T": w.T,
            "seeds": list(seeds),
            "input": "white_gaussian",
            "per_seed": per_seed,
            "aggregate": {
                "diverged_count": sum(p["diverged"] for p in per_seed),
                "terminal_mse_mean": mean("terminal_mse"),
                "terminal_weight_error_mean": mean("terminal_weight_error"),
                "terminal_weight_error_max": float(np.max([p["terminal_weight_error"] for p in ok])) if ok else None,
                "leak_fraction_mean": float(np.mean([p["leak_fraction"] for p in per_seed])),
                "max_imag": float(np.max([p["max_imag"] for p in per_seed])),
            },
        }
        if w.emit in ("summary", "both"):
            files[f"{name}_summary.json"] = _jsonable(doc)
    return files, int(runs.iterations.sum())


def expected_sweep(w: Workload, seed: int) -> tuple[dict, int]:
    """Expected sweep_eta.csv (label, three floats per row) and sweep_eta.json."""
    plant = load_plant(SCENARIOS / w.scenario)
    seeds = w.seeds(seed)
    name, params = w.filters[0]
    X, d, omega = _seed_data(plant, w.T, seeds)
    _, _, eig = correlations(X[0], d[0])
    lam = float(eig[0])
    etas = [float(g) for g in w.grid] + [2.0 / lam]
    cfgs = [{**params, "eta": eta} for eta in etas for _ in seeds]
    G, S = len(etas), len(seeds)
    runs = run_rows(np.tile(X, (G, 1, 1)), np.tile(d, (G, 1)), np.tile(omega, (G, 1)), cfgs)
    rows = []
    for g in range(G):
        idx = range(g * S, (g + 1) * S)
        finite = [float(runs.werr[b, runs.iterations[b] - 1]) for b in idx if not runs.diverged[b]]
        label = format(etas[g], ".17g") if g < len(w.grid) else "2/lambda_max"
        rows.append(
            (
                label,
                float(np.mean([runs.diverged[b] for b in idx])),
                float(np.mean(finite)) if finite else float("nan"),
                float(np.mean([runs.leak(b)[2] for b in idx])),
            )
        )
    doc = {
        "param": "eta",
        "grid": [float(g) for g in w.grid],
        "config": name,
        "T": w.T,
        "seeds": list(seeds),
        "lambda_max": lam,
        "eta_reference_2_over_lambda_max": 2.0 / lam,
        "cells": [
            {
                "param_value": label,
                "diverged_fraction": df,
                "terminal_weight_error_mean": twe,
                "leak_fraction_mean": lf,
            }
            for label, df, twe, lf in rows
        ],
    }
    return {"sweep_eta.csv": rows, "sweep_eta.json": _jsonable(doc)}, int(runs.iterations.sum())


def expected_wiener(w: Workload, seed: int) -> tuple[dict, int]:
    """Expected wiener.json and the number of regressor rows simulated and correlated."""
    plant = load_plant(SCENARIOS / w.scenario)
    X, d = simulate(plant, w.T, w.seeds(seed)[0])
    R, p, eig = correlations(X, d)
    doc = {
        "sample_count": X.shape[0],
        "R": R.tolist(),
        "p": p.tolist(),
        "eigenvalues": eig.tolist(),
        "lambda_max": float(eig[0]),
        "eta_stability_reference": 2.0 / float(eig[0]),
        "omega_opt": np.linalg.solve(R, p).tolist(),
        "ridge": 0.0,
        "true_weight_vector": plant.weights.tolist(),
    }
    return {"wiener.json": doc}, X.shape[0]


def expected(w: Workload, seed: int) -> tuple[dict, int]:
    """({artifact name: expected content}, work items) for one workload and seed.

    Work items are filter update steps for simulate and sweep, and regressor
    rows for wiener.
    """
    return {"simulate": expected_simulate, "sweep": expected_sweep, "wiener": expected_wiener}[w.command](w, seed)
