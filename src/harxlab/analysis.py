"""Identification experiments and diagnostics.

Empirical correlations and the Wiener solution they induce, learning-curve
runs with divergence detection (every config and seed of a command stepping
together in one batched kernel), complex-leak summaries for the signed
fractional variant, a truncated-binomial residual checked against the direct
power, and an empirical step-size stability probe that replaces any analytic
bound with measured divergence fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import shapecheck
from .errors import DataOverflow, DimensionMismatch, DomainError, EmptyDataset, SingularCorrelation
from .filters import FilterConfig, FilterState
from .plant import Dataset, HarxPlant, generate_sequence

DIVERGENCE_THRESHOLD = 1e12
LEAK_EPS = 1e-15
# Correlation checks, relative to the size of R: the symmetry check to
# max|R|, the PSD and singularity checks to lambda_max.  Scaling the data
# then never changes their verdicts.
_SYMMETRY_RTOL = 1e-12
_PSD_RTOL = 1e-10
_SINGULAR_RTOL = 1e-12
# the size of the weight history of one time block of run_batch
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class CorrelationEstimate:
    """Empirical R = E[psi psi^T] and p = E[psi s], with the spectrum of R.

    Eigenvalues are sorted descending; tiny negatives (down to -1e-10 *
    lambda_max) are tolerated as sampling/roundoff noise on a PSD matrix, and
    R must be symmetric to within 1e-12 * max|R|.
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
        if float(np.max(np.abs(R - R.T))) > _SYMMETRY_RTOL * float(np.max(np.abs(R))):
            raise ValueError("R must be symmetric to within 1e-12 * max|R|")
        if np.any(np.diff(eig) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        if float(eig[-1]) < -_PSD_RTOL * max(float(eig[0]), 0.0):
            raise ValueError(f"R is not PSD up to tolerance: min eigenvalue {eig[-1]}, lambda_max {eig[0]}")

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])


def estimate_correlations(dataset: Dataset) -> CorrelationEstimate:
    """Sample-mean estimates R = (1/N) sum psi psi^T and p = (1/N) sum psi s."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot estimate correlations from zero samples")
    X = dataset.X
    N = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        R = X.T @ X / N
        R = 0.5 * (R + R.T)  # exact symmetry despite BLAS rounding
        p = X.T @ np.asarray(dataset.outputs, dtype=np.float64) / N
    if not (np.isfinite(R).all() and np.isfinite(p).all()):
        raise DataOverflow("R or p is not finite: the data overflow float64")
    eig = np.linalg.eigvalsh(R)[::-1]
    return CorrelationEstimate(R=R, p=p, eigenvalues=eig, sample_count=N)


def wiener_solution(est: CorrelationEstimate, ridge: float = 0.0) -> np.ndarray:
    """Solve (R + ridge I) omega = p.

    No silent regularization: with the default ridge of zero a rank-deficient
    R raises SingularCorrelation instead of returning a least-norm answer.
    R + ridge I counts as singular when its smallest eigenvalue is not above
    1e-12 times its largest.
    """
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    lowest, highest = float(est.eigenvalues[-1]) + ridge, est.lambda_max + ridge
    if lowest <= _SINGULAR_RTOL * highest:
        raise SingularCorrelation(
            f"smallest eigenvalue {est.eigenvalues[-1]:.3e} + ridge {ridge:.3e} is not above "
            f"1e-12 * (lambda_max {est.lambda_max:.3e} + ridge)"
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
    share one length.  The curves are read-only.
    """

    mse_curve: np.ndarray
    weight_error_curve: np.ndarray
    imag_curve: np.ndarray
    diverged: bool
    final_state: FilterState
    omega_opt: np.ndarray


@dataclass(frozen=True)
class SeedData:
    """Every seed's dataset, simulated once and stacked for :func:`run_batch`.

    ``X`` is (S, N, n), ``outputs`` (S, N), ``omega`` (S, n) the Wiener
    solution of each seed's own data, and ``lambda_max`` (S,) the largest
    eigenvalue of each seed's correlation matrix.  All arrays are read-only.
    """

    X: np.ndarray
    outputs: np.ndarray
    omega: np.ndarray
    lambda_max: np.ndarray

    def __post_init__(self):
        for arr in (self.X, self.outputs, self.omega, self.lambda_max):
            arr.setflags(write=False)


def simulate_seeds(plant: HarxPlant, T: int, seeds, input_kind: str = "white_gaussian") -> SeedData:
    """Simulate each seed's dataset once and solve its Wiener reference.

    The seed drives the input and noise streams, so a seed's data is the same
    whichever other seeds it is simulated with.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("at least one seed is required")
    omega, lam = [], []
    for s, seed in enumerate(seeds):
        data = generate_sequence(plant, input_kind=input_kind, T=T, rng=np.random.default_rng(seed))
        if s == 0:  # one copy of every seed's regressors, filled in place
            X = np.empty((len(seeds), *data.X.shape))
            outputs = np.empty((len(seeds), len(data)))
        X[s], outputs[s] = data.X, data.outputs
        est = estimate_correlations(data)
        omega.append(wiener_solution(est, ridge=0.0))
        lam.append(est.lambda_max)
        del data  # freed before the next seed is simulated
    return SeedData(X=X, outputs=outputs, omega=np.stack(omega), lambda_max=np.array(lam))


def _factor_groups(cfgs) -> tuple[list[tuple[str, float]], np.ndarray]:
    """The distinct (factor kind, exponent) pairs of ``cfgs``, sorted, and each
    config's index into them.  ``lms`` and ``momentum_lms`` configs take no
    factor: their index is one past the last group."""
    keys = [
        ("signed" if cfg.variant == "flms_signed" else cfg.power_interpretation, 1.0 - cfg.v)
        if cfg.variant in ("flms_signed", "mflms_modulus")
        else None
        for cfg in cfgs
    ]
    groups = sorted(set(keys) - {None})
    return groups, np.array([len(groups) if key is None else groups.index(key) for key in keys], dtype=np.int64)


def _factor(kind: str, re: np.ndarray, guard: np.ndarray, exponent: float) -> np.ndarray:
    """The fractional factor of rows sharing one kind and exponent, computed as
    :func:`harxlab.filters.fractional_factor` computes it: one np.power call
    with a scalar exponent (so sqrt for 0.5), or for ``euclidean_norm`` a
    Python float power per row, broadcast over the row's weights."""
    if kind == "signed":
        return np.power(re.astype(np.complex128), exponent)
    if kind == "elementwise_abs":
        return np.power(np.maximum(np.abs(re), guard), exponent)
    base = np.maximum(np.sqrt(np.vecdot(re, re)), guard[..., 0])
    return np.reshape([b**exponent for b in base.ravel().tolist()], (*base.shape, 1))


def run_batch(cfgs, X, outputs, omega) -> list[list[RunRecord]]:
    """Run every config on every seed's data, all (config, seed) rows stepping together.

    ``X`` (S, N, n), ``outputs`` (S, N) and ``omega`` (S, n) hold the seeds'
    regressor matrices, desired outputs and Wiener solutions; they are
    broadcast over the configs, never tiled.  The configs may be of any
    variants: the ``flms_signed`` rows step in one complex128 time loop, every
    other row in one float64 time loop, so a real row's imaginary parts are
    exactly 0.  Row (c, s) starts from zero weights and applies, element by
    element and in the same order, the operations of the single-step
    functions in :mod:`harxlab.filters`::

        w' = w + beta (w - w_prev) + eta e psi (1 + factor)

    with beta = 0 for ``lms``; an ``lms`` or ``momentum_lms`` row leaves its
    gradient unscaled (factor 0).  Inner products and norms are one BLAS dot
    per row (``np.vecdot``), so no row's sums depend on the other rows.  The
    single-step functions hold a real row's weights as the strided real part
    of a complex vector, where this kernel holds them contiguous, so BLAS may
    sum a real row's prediction error in another order (n >= 4): the only
    difference.

    Time runs in blocks of B steps, B sized so that a block's weight history
    takes about 256 KB.  Within a block every live row steps the recurrence
    alone; the curves and the stop check are computed once per block from
    the block's history.  A row stops at its first curve entry that is
    non-finite or above 1e12: its curves end there, its final state is the
    state after that step, it adds nothing more to ``complex_events``, and
    it leaves the batch at the end of the block, so a stopped row costs at
    most B - 1 extra steps.  Returns ``records[c][s]`` in the order of
    ``cfgs``.  The records' curves are views into their time loop's shared
    (C S, N) buffers, so any record a caller keeps holds all of that loop's
    curves alive.
    """
    cfgs = list(cfgs)
    X = np.asarray(X, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if X.ndim != 3 or outputs.shape != X.shape[:2] or omega.shape != (X.shape[0], X.shape[2]):
        raise DimensionMismatch(
            f"expected X (S, N, n), outputs (S, N), omega (S, n); got {X.shape}, {outputs.shape}, {omega.shape}"
        )
    n = X.shape[2]
    for cfg in cfgs:
        if cfg.dim != n:
            raise DimensionMismatch(f"config dim {cfg.dim} != data weight dimension {n}")
    records: list = [None] * len(cfgs)
    for signed in (False, True):
        rows = [c for c, cfg in enumerate(cfgs) if (cfg.variant == "flms_signed") == signed]
        if rows:
            for c, per_seed in zip(rows, _run_rows([cfgs[c] for c in rows], signed, X, outputs, omega)):
                records[c] = per_seed
    return records


def _run_rows(cfgs, signed, X, outputs, omega) -> list[list[RunRecord]]:
    """The time loop of :func:`run_batch`, in complex128 if ``signed`` else float64.

    The (config, seed) rows are flattened, ordered by factor group so that a
    group's live rows are one slice, and each carries its seed index.  They
    step B steps at a time, B fixed so that the first block's weight history
    takes about ``_BLOCK_BYTES``.  Within a block only the recurrence runs:
    each step writes the weights of the L live rows into a (B + 2, L, n)
    history and their errors into a (B, L) buffer.  After the block the
    curves and ``complex_events`` are computed from the history in bulk,
    each row's first non-finite or > 1e12 curve entry is found, and a row
    that stopped takes its final state from the history and leaves the
    batch.  A stopped row thus runs on for at most B - 1 steps whose results
    nothing reads; every sum is per row, so they touch no other row.
    """
    S, N, n = X.shape
    C = len(cfgs)
    R = C * S
    dtype = np.complex128 if signed else np.float64

    # rows ordered by factor group, so each group's live rows are one slice
    groups, group_of = _factor_groups(cfgs)
    order = np.argsort(group_of, kind="stable")
    cfg_of, seed_of = np.repeat(order, S), np.tile(np.arange(S), C)
    group_of = group_of[cfg_of]
    row_of = np.empty(C, dtype=np.int64)
    row_of[order] = np.arange(0, R, S)  # config c's seeds are rows row_of[c] + s

    # per-config parameters, one entry per row
    column = lambda values: np.array(values, dtype=np.float64)[cfg_of]  # noqa: E731
    eta = column([cfg.eta for cfg in cfgs])
    beta = column([0.0 if cfg.variant == "lms" else cfg.beta for cfg in cfgs])[:, None]
    guard = column([cfg.epsilon_guard for cfg in cfgs])[:, None]
    B = max(1, _BLOCK_BYTES // (R * n * np.dtype(dtype).itemsize))

    mse = np.empty((R, N))
    werr = np.empty((R, N))
    imag = np.empty((R, N)) if signed else np.zeros(N)  # real rows share one all-zero curve
    iterations = np.zeros(R, dtype=np.int64)
    diverged = np.zeros(R, dtype=bool)
    final_w = np.zeros((R, n), dtype=dtype)
    final_w_prev = np.zeros((R, n), dtype=dtype)
    events = np.zeros(R, dtype=np.int64)

    live = np.arange(R)
    start = np.zeros((2, R, n), dtype=dtype)  # the live rows' w_prev and w
    X_by_time, outputs_by_time = X.transpose(1, 0, 2), outputs.T
    t0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and t0 < N:
            b, L = min(B, N - t0), live.size
            seeds, span = seed_of[live], slice(t0, t0 + b)
            Xb = np.take(X_by_time[span], seeds, axis=1)  # (b, L, n): each psi a contiguous (L, n)
            db = np.take(outputs_by_time[span], seeds, axis=1)
            eta_b, beta_b, guard_b = eta[live], beta[live], guard[live]
            bounds = np.searchsorted(group_of[live], np.arange(len(groups) + 1)).tolist()
            block_groups = [
                (kind, e, slice(lo, hi), guard_b[lo:hi])
                for (kind, e), lo, hi in zip(groups, bounds, bounds[1:])
                if lo < hi
            ]

            H = np.empty((b + 2, L, n), dtype=dtype)
            H[:2] = start
            E = np.empty((b, L))
            W_prev, W = H[0], H[1]
            for j in range(b):
                psi = Xb[j]
                re = W.real
                err = np.subtract(db[j], np.vecdot(psi, re), out=E[j])
                grad = ((eta_b * err)[:, None] * psi).astype(dtype, copy=False)
                for kind, e, at, g in block_groups:
                    grad[at] *= 1.0 + _factor(kind, re[at], g, e)
                W_prev, W = W, np.add(W + beta_b * (W - W_prev), grad, out=H[j + 2])

            # the block's diagnostics, from its history; Xb's buffer holds the temporaries
            m_b = np.multiply(E, E)
            diff = np.subtract(H[2:].real, omega[seeds], out=Xb)
            e_b = np.sqrt(np.vecdot(diff, diff))
            worst = np.maximum(m_b, e_b)  # NaN propagates
            if signed:
                im = Xb
                im[...] = H[2:].imag  # the norm of a contiguous copy, as np.linalg.norm takes it
                i_b = np.sqrt(np.vecdot(im, im))
                worst = np.maximum(worst, i_b)
            bad = ~(worst <= DIVERGENCE_THRESHOLD)
            stopped = bad.any(axis=0)
            last = np.where(stopped, bad.argmax(axis=0), b - 1)  # each row's last step that counts
            mse[live, span] = m_b.T
            werr[live, span] = e_b.T
            if signed:
                imag[live, span] = i_b.T
                counts = np.arange(b)[:, None] <= last
                step_peak = np.where(counts, np.maximum.reduce(np.abs(im, out=im), axis=-1), 0.0)
                events[live] += np.count_nonzero(step_peak > 0.0, axis=0)
            rows = np.arange(L)
            iterations[live] = t0 + last + 1
            diverged[live] = stopped
            final_w[live], final_w_prev[live] = H[last + 2, rows], H[last + 1, rows]

            keep = ~stopped
            start, live = H[b:, keep], live[keep]
            t0 += b

    for arr in (mse, werr, imag):
        arr.setflags(write=False)
    records = []
    for c in range(C):
        per_seed = []
        for s in range(S):
            r = row_of[c] + s
            k = int(iterations[r])
            state = FilterState(w=final_w[r], w_prev=final_w_prev[r], iteration=k, complex_events=int(events[r]))
            per_seed.append(
                RunRecord(
                    mse_curve=mse[r, :k],
                    weight_error_curve=werr[r, :k],
                    imag_curve=imag[r, :k] if signed else imag[:k],
                    diverged=bool(diverged[r]),
                    final_state=state,
                    omega_opt=omega[s].copy(),
                )
            )
        records.append(per_seed)
    return records


def run_experiment(
    plant: HarxPlant,
    cfg: FilterConfig,
    T: int,
    seed: int,
    input_kind: str = "white_gaussian",
) -> RunRecord:
    """One identification run: simulate the plant, fix the empirical Wiener
    solution as reference, then iterate the configured update rule.

    A batch of one for :func:`run_batch`.  Deterministic for a fixed seed:
    the seed drives the input and noise streams, and the steps are pure.
    """
    data = simulate_seeds(plant, T, [seed], input_kind)
    return run_batch([cfg], data.X, data.outputs, data.omega)[0][0]


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
    count = int(np.count_nonzero(hot))
    first = int(hot.argmax()) if count else None
    return LeakReport(first_leak_iter=first, max_imag=float(curve.max()), leak_fraction=count / curve.size)


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


def _aggregate(records) -> SweepCell:
    finite = [float(r.weight_error_curve[-1]) for r in records if not r.diverged]
    return SweepCell(
        diverged_fraction=float(np.mean([r.diverged for r in records])),
        terminal_weight_error_mean=float(np.mean(finite)) if finite else float("nan"),
        leak_fraction_mean=float(np.mean([complex_leak_report(r).leak_fraction for r in records])),
    )


def sweep_cells(
    plant: HarxPlant,
    cfgs,
    T: int,
    seeds,
    input_kind: str = "white_gaussian",
) -> list[SweepCell]:
    """One cell per config; every config runs over every seed in one batch,
    on datasets simulated once."""
    data = simulate_seeds(plant, T, seeds, input_kind)
    return [_aggregate(records) for records in run_batch(cfgs, data.X, data.outputs, data.omega)]


@dataclass(frozen=True)
class StabilityProbe:
    """One cell per grid step size, then the cell at the classical reference
    point 2 / lambda_max, with lambda_max measured from the first seed's
    dataset."""

    cells: tuple[SweepCell, ...]
    lambda_max: float

    @property
    def diverged_fraction(self) -> np.ndarray:
        """The divergence fraction of each grid cell, the reference left out."""
        return np.array([cell.diverged_fraction for cell in self.cells[:-1]])


def stability_probe(
    plant: HarxPlant,
    cfg_template: FilterConfig,
    eta_grid,
    T: int,
    seeds,
    input_kind: str = "white_gaussian",
) -> StabilityProbe:
    """Empirical stability scan over a step-size grid.

    Each seed's dataset is simulated once; the template config then runs at
    every grid eta and at the classical mean-stability reference
    2 / lambda_max (from the first seed's correlations) over all seeds, in
    one batch, and each eta's cell is recorded, the reference last.
    """
    grid = np.asarray(eta_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("eta grid must be positive and strictly ascending")
    data = simulate_seeds(plant, T, seeds, input_kind)
    lam = float(data.lambda_max[0])
    cfgs = [replace(cfg_template, eta=eta) for eta in [*grid.tolist(), 2.0 / lam]]
    cells = tuple(_aggregate(r) for r in run_batch(cfgs, data.X, data.outputs, data.omega))
    return StabilityProbe(cells=cells, lambda_max=lam)


def run_record_csv(record: RunRecord) -> str:
    """Plot-ready learning curves: header ``iter,mse,weight_error,imag_norm``,
    one row per iteration, %.17g cells, LF line endings."""
    k = len(record.mse_curve)
    cells = zip(range(k), record.mse_curve.tolist(), record.weight_error_curve.tolist(), record.imag_curve.tolist())
    return "iter,mse,weight_error,imag_norm\n" + "%d,%.17g,%.17g,%.17g\n" * k % tuple(chain.from_iterable(cells))


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
