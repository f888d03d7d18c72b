"""Identification experiments and diagnostics.

Empirical correlations and the Wiener solution they induce, learning-curve
runs with divergence detection, complex-leak summaries for the signed
fractional variant, a truncated-binomial residual checked against the direct
power, and an empirical step-size stability probe that replaces any analytic
bound with measured divergence fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import shapecheck
from .errors import DimensionMismatch, DomainError, EmptyDataset, SingularCorrelation
from .filters import FilterConfig, FilterState, initial_state, step
from .plant import Dataset, HarxPlant, _cell as _g, generate_sequence

DIVERGENCE_THRESHOLD = 1e12
LEAK_EPS = 1e-15
_PSD_TOL = -1e-10


@dataclass(frozen=True)
class CorrelationEstimate:
    """Empirical R = E[psi psi^T] and p = E[psi s], with the spectrum of R.

    Eigenvalues are sorted descending; tiny negatives (down to -1e-10) are
    tolerated as sampling/roundoff noise on a PSD matrix.
    """

    R: np.ndarray
    p: np.ndarray
    eigenvalues: np.ndarray
    sample_count: int

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        for arr, name in ((R, "R"), (p, "p"), (eig, "eigenvalues")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = p.shape[0]
        if R.shape != (n, n) or eig.shape != (n,):
            raise DimensionMismatch(f"inconsistent estimate shapes: R {R.shape}, p {p.shape}, eig {eig.shape}")
        if float(np.max(np.abs(R - R.T))) > 1e-12:
            raise ValueError("R must be symmetric to within 1e-12")
        if np.any(np.diff(eig) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        if float(eig[-1]) < _PSD_TOL:
            raise ValueError(f"R is not PSD up to tolerance: min eigenvalue {eig[-1]}")

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])


def estimate_correlations(dataset: Dataset) -> CorrelationEstimate:
    """Sample-mean estimates R = (1/N) sum psi psi^T and p = (1/N) sum psi s."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot estimate correlations from zero samples")
    X = dataset.X
    N = X.shape[0]
    R = X.T @ X / N
    R = 0.5 * (R + R.T)  # exact symmetry despite BLAS rounding
    p = X.T @ np.asarray(dataset.outputs, dtype=np.float64) / N
    eig = np.linalg.eigvalsh(R)[::-1]
    return CorrelationEstimate(R=R, p=p, eigenvalues=eig, sample_count=N)


def wiener_solution(est: CorrelationEstimate, ridge: float = 0.0) -> np.ndarray:
    """Solve (R + ridge I) omega = p.

    No silent regularization: with the default ridge of zero a rank-deficient
    R raises SingularCorrelation instead of returning a least-norm answer.
    """
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    if float(est.eigenvalues[-1]) + ridge <= 1e-12:
        raise SingularCorrelation(
            f"smallest eigenvalue {est.eigenvalues[-1]:.3e} + ridge {ridge:.3e} is not above 1e-12"
        )
    n = est.p.shape[0]
    return np.linalg.solve(est.R + ridge * np.eye(n), est.p)


@dataclass(frozen=True)
class RunRecord:
    """Learning curves of one run plus the final filter state.

    ``weight_error_curve`` measures ||Re(w(t)) - omega_opt|| against the
    empirical Wiener solution of the run's own dataset (stored in
    ``omega_opt``).  A run is flagged diverged as soon as any curve entry is
    non-finite or exceeds 1e12, and stops there; all three curves always
    share one length.
    """

    mse_curve: np.ndarray
    weight_error_curve: np.ndarray
    imag_curve: np.ndarray
    diverged: bool
    final_state: FilterState
    omega_opt: np.ndarray


def run_experiment(
    plant: HarxPlant,
    cfg: FilterConfig,
    T: int,
    seed: int,
    input_kind: str = "white_gaussian",
) -> RunRecord:
    """One identification run: simulate the plant, fix the empirical Wiener
    solution as reference, then iterate the configured update rule.

    Deterministic for a fixed seed: the seed drives the input and noise
    streams, and the steps themselves are pure.
    """
    if cfg.dim != plant.n:
        raise DimensionMismatch(f"config dim {cfg.dim} != plant weight dimension {plant.n}")
    rng = np.random.default_rng(seed)
    data = generate_sequence(plant, input_kind=input_kind, T=T, rng=rng)
    omega = wiener_solution(estimate_correlations(data), ridge=0.0)

    state = initial_state(cfg)
    mse: list[float] = []
    werr: list[float] = []
    imag: list[float] = []
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for psi, desired in zip(data.X, data.outputs):
            state, rec = step(state, cfg, psi, float(desired))
            mse.append(rec.error * rec.error)
            werr.append(float(np.linalg.norm(state.w.real - omega)))
            imag.append(rec.imag_norm)
            latest = (mse[-1], werr[-1], imag[-1])
            if not all(np.isfinite(latest)) or max(latest) > DIVERGENCE_THRESHOLD:
                diverged = True
                break
    return RunRecord(
        mse_curve=np.asarray(mse),
        weight_error_curve=np.asarray(werr),
        imag_curve=np.asarray(imag),
        diverged=diverged,
        final_state=state,
        omega_opt=omega,
    )


@dataclass(frozen=True)
class LeakReport:
    """Summary of imaginary-mass leakage over a run."""

    first_leak_iter: int | None
    max_imag: float
    leak_fraction: float


def complex_leak_report(record: RunRecord | np.ndarray) -> LeakReport:
    """Scan an imaginary-norm curve for leakage above 1e-15."""
    curve = record.imag_curve if isinstance(record, RunRecord) else np.asarray(record, dtype=np.float64)
    if curve.size == 0:
        return LeakReport(first_leak_iter=None, max_imag=0.0, leak_fraction=0.0)
    hot = curve > LEAK_EPS
    first = int(np.argmax(hot)) if bool(hot.any()) else None
    return LeakReport(first_leak_iter=first, max_imag=float(np.max(curve)), leak_fraction=float(np.mean(hot)))


def binomial_residual(omega_opt: float, delta: float, exponent: float, k_max: int) -> np.ndarray:
    """|direct power - truncated generalized-binomial partial sum| per K.

    residual[K] = |(omega + delta)^e - sum_{k=0..K} C(e, k) omega^(e-k) delta^k|
    with generalized coefficients C(e, k) = e (e-1) ... (e-k+1) / k!.  The
    direct real power is the oracle; the partial sums are the object under
    test.  Scalar case only - the vector reading is a shape question, see
    :func:`binomial_vector_verdict`.
    """
    omega = float(omega_opt)
    delta = float(delta)
    e = float(exponent)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if omega == 0.0:
        raise DomainError("omega_opt must be nonzero")
    if not e.is_integer() and (omega <= 0.0 or omega + delta <= 0.0):
        raise DomainError(
            "real power undefined: a non-integer exponent needs omega_opt > 0 and omega_opt + delta > 0"
        )
    oracle = (omega + delta) ** e
    residuals = np.empty(k_max + 1)
    coeff = 1.0
    partial = 0.0
    for k in range(k_max + 1):
        if k > 0:
            coeff *= (e - (k - 1)) / k
        partial += coeff * omega ** (e - k) * delta**k
        residuals[k] = abs(oracle - partial)
    return residuals


def binomial_vector_verdict(n: int) -> shapecheck.ShapeVerdict:
    """Shape verdict for the vector reading of the expansion's two sides.

    For n >= 2 the right side contracts to a scalar while the left side is a
    vector, so the verdict is a mismatch.  n = 1 degenerates to the ordinary
    scalar expansion (documented boundary, well-formed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = shapecheck.Shape.scalar() if n == 1 else shapecheck.Shape.vector(n)
    env = shapecheck.ShapeEnv(
        bindings={
            "Omega_opt": base,
            "DOmega": base,
            "j": shapecheck.Shape.scalar(),
            "k": shapecheck.Shape.scalar(),
        }
    )
    lhs = shapecheck.parse_expr(shapecheck.EQ25_LHS_TEXT)
    rhs = shapecheck.parse_expr(shapecheck.EQ25_RHS_TEXT)
    return shapecheck.check_equation(lhs, rhs, env)


@dataclass(frozen=True)
class BinomialReport:
    """Scalar truncation residuals plus the vector-case shape verdict."""

    scalar_residuals: np.ndarray
    vector_verdict: str
    notes: str


def binomial_report(omega_opt: float, delta: float, exponent: float, k_max: int, n: int = 9) -> BinomialReport:
    residuals = binomial_residual(omega_opt, delta, exponent, k_max)
    verdict = binomial_vector_verdict(n)
    tag = "type_mismatch" if verdict.outcome == "mismatch" else verdict.outcome
    notes = (
        f"scalar truncation vs direct power at omega={omega_opt}, delta={delta}, exponent={exponent}; "
        f"vector reading (n={n}): {verdict.describe()}"
    )
    return BinomialReport(scalar_residuals=residuals, vector_verdict=tag, notes=notes)


@dataclass(frozen=True)
class SweepCell:
    """Seed-aggregated metrics at one parameter value.

    ``terminal_weight_error_mean`` averages the non-diverged runs and is NaN
    when every seed diverged; ``leak_fraction_mean`` averages all runs.
    """

    diverged_fraction: float
    terminal_weight_error_mean: float
    leak_fraction_mean: float


def sweep_cell(
    plant: HarxPlant,
    cfg: FilterConfig,
    T: int,
    seeds,
    input_kind: str = "white_gaussian",
) -> SweepCell:
    records = [run_experiment(plant, cfg, T, int(s), input_kind) for s in seeds]
    finite = [float(r.weight_error_curve[-1]) for r in records if not r.diverged]
    return SweepCell(
        diverged_fraction=float(np.mean([r.diverged for r in records])),
        terminal_weight_error_mean=float(np.mean(finite)) if finite else float("nan"),
        leak_fraction_mean=float(np.mean([complex_leak_report(r).leak_fraction for r in records])),
    )


@dataclass(frozen=True)
class StabilityProbe:
    """Per-step-size divergence fractions plus the classical reference point
    2 / lambda_max measured from the first seed's dataset."""

    etas: np.ndarray
    diverged_fraction: np.ndarray
    terminal_weight_error_mean: np.ndarray
    leak_fraction_mean: np.ndarray
    lambda_max: float
    eta_reference: float


def stability_probe(
    plant: HarxPlant,
    cfg_template: FilterConfig,
    eta_grid,
    T: int,
    seeds,
    input_kind: str = "white_gaussian",
) -> StabilityProbe:
    """Empirical stability scan over a step-size grid.

    For each eta the template config is re-run over all seeds and the
    divergence fraction recorded; the classical mean-stability reference
    2 / lambda_max comes from correlations estimated on the first seed's
    dataset.
    """
    grid = np.asarray(eta_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("eta grid must be positive and strictly ascending")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("at least one seed is required")
    reference = generate_sequence(plant, input_kind=input_kind, T=T, rng=np.random.default_rng(seeds[0]))
    lam = estimate_correlations(reference).lambda_max
    cells = [sweep_cell(plant, replace(cfg_template, eta=float(eta)), T, seeds, input_kind) for eta in grid]
    return StabilityProbe(
        etas=grid,
        diverged_fraction=np.array([c.diverged_fraction for c in cells]),
        terminal_weight_error_mean=np.array([c.terminal_weight_error_mean for c in cells]),
        leak_fraction_mean=np.array([c.leak_fraction_mean for c in cells]),
        lambda_max=lam,
        eta_reference=2.0 / lam,
    )


def run_record_csv(record: RunRecord) -> str:
    """Plot-ready learning curves: header ``iter,mse,weight_error,imag_norm``,
    one row per iteration, %.17g cells, LF line endings."""
    lines = ["iter,mse,weight_error,imag_norm"]
    for i in range(len(record.mse_curve)):
        lines.append(
            f"{i},{_g(record.mse_curve[i])},{_g(record.weight_error_curve[i])},{_g(record.imag_curve[i])}"
        )
    return "\n".join(lines) + "\n"


def run_summary(record: RunRecord) -> dict:
    """Scalar summary of one run (JSON-ready apart from non-finite floats)."""
    leak = complex_leak_report(record)
    return {
        "iterations": int(len(record.mse_curve)),
        "diverged": bool(record.diverged),
        "terminal_mse": float(record.mse_curve[-1]),
        "terminal_weight_error": float(record.weight_error_curve[-1]),
        "complex_events": int(record.final_state.complex_events),
        "max_imag": leak.max_imag,
        "first_leak_iter": leak.first_leak_iter,
        "leak_fraction": leak.leak_fraction,
    }


def correlation_summary(est: CorrelationEstimate, omega_opt: np.ndarray | None = None) -> dict:
    """JSON-ready document for a correlation estimate and, optionally, the
    Wiener solution computed from it."""
    doc = {
        "sample_count": est.sample_count,
        "R": est.R.tolist(),
        "p": est.p.tolist(),
        "eigenvalues": est.eigenvalues.tolist(),
        "lambda_max": est.lambda_max,
        "eta_stability_reference": 2.0 / est.lambda_max,
    }
    if omega_opt is not None:
        doc["omega_opt"] = np.asarray(omega_opt).tolist()
    return doc
