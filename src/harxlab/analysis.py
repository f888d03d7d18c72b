"""Identification experiments and diagnostics.

Empirical correlations and the Wiener solution they induce, learning-curve
runs with divergence detection (every config and seed of a command stepping
together in one batched kernel), a truncated-binomial residual checked
against the direct power, and an empirical step-size stability probe that
replaces any analytic bound with measured divergence fractions.

Every number a command reports about a run, complex leakage included, comes
from :func:`run_summary`, and every number about a config's seeds from
:func:`seed_aggregate` over those summaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataOverflow, DimensionMismatch, DomainError, EmptyDataset, SingularCorrelation
from .filters import FilterConfig, FilterState, fractional_power
from .plant import Dataset, HarxPlant, generate_sequence

if TYPE_CHECKING:
    from . import shapecheck

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
    share one length of at least 1.  The curves are read-only; only
    :func:`run_record_csv` and :func:`run_summary` read them.
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
    # one copy of every seed's regressors, each seed's written in place; T <= m fails in generate_sequence
    X = np.empty((len(seeds), max(T - plant.m, 0), plant.n))
    outputs = np.empty(X.shape[:2])
    omega, lam = [], []
    for s, seed in enumerate(seeds):
        data = generate_sequence(plant, input_kind=input_kind, T=T, rng=np.random.default_rng(seed), out=X[s])
        outputs[s] = data.outputs
        est = estimate_correlations(data)
        omega.append(wiener_solution(est, ridge=0.0))
        lam.append(est.lambda_max)
        del data  # freed before the next seed is simulated
    return SeedData(X=X, outputs=outputs, omega=np.stack(omega), lambda_max=np.array(lam))


def _factor_groups(cfgs) -> tuple[list[tuple[str, float]], np.ndarray]:
    """The distinct ``cfg.factor`` values of ``cfgs``, sorted, and each config's
    index into them; a config without a factor indexes one past the last group."""
    keys = [cfg.factor for cfg in cfgs]
    groups = sorted(set(keys) - {None})
    return groups, np.array([len(groups) if key is None else groups.index(key) for key in keys], dtype=np.int64)


def curves_per_seed(cfgs) -> int:
    """The curves :func:`run_batch` keeps per seed for ``cfgs``: two per config,
    and a third, the imaginary norm, when the config's factor kind is ``signed``."""
    return sum(3 if cfg.factor is not None and cfg.factor[0] == "signed" else 2 for cfg in cfgs)


def run_batch(cfgs, X, outputs, omega) -> list[list[RunRecord]]:
    """Run every config on every seed's data, all (config, seed) rows stepping together.

    ``X`` (S, N, n) with S, N, n >= 1, ``outputs`` (S, N) and ``omega`` (S, n)
    hold the seeds' regressor matrices, desired outputs and Wiener solutions;
    they are broadcast over the configs, never tiled.  The configs may be of
    any variants; each is read through its ``momentum`` and ``factor``
    properties only.  Every row steps in one float64 time loop.  A row whose
    factor kind is ``signed`` keeps its weights' real and imaginary parts in
    two real rows, and its final state is the complex128 vector rebuilt
    exactly from them; every other row is real throughout, so its imaginary
    parts are exactly 0.  Row (c, s) starts from zero weights and applies,
    element by element and in the same order, the operations of
    :func:`harxlab.filters.step`::

        w' = w + momentum (w - w_prev) + eta e psi (1 + factor)

    with the factor from :func:`harxlab.filters.fractional_power`, the code
    ``step`` calls too, and no factor (0) for a config without one.  On a
    signed row the complex products of ``step`` lose only their terms
    ``0 * x``, with x finite up to the step a row stops at.  Such a term can
    change only the sign of a zero, and that sign never reaches a weight:
    no weight is ever -0.0, as a sum is -0.0 only when both of its terms
    are, and every weight starts at +0.0.  Inner products and norms are one
    BLAS dot per contiguous row (``np.vecdot``), so no row's sums depend on
    the other rows.  A record therefore equals, bit for bit, what a loop
    over ``step`` gives.

    Time runs in blocks of B steps, B sized so that a block's weight history
    takes about 256 KB.  Within a block every live row steps the recurrence
    alone; the curves and the stop check are computed once per block from
    the block's history.  A row stops at its first curve entry that is
    non-finite or above 1e12: its curves end there, its final state is the
    state after that step, it adds nothing more to ``complex_events``, and
    it leaves the batch at the end of the block, so a stopped row costs at
    most B - 1 extra steps.  Returns ``records[c][s]`` in the order of
    ``cfgs``.  The records' curves are views into buffers the batch's rows
    share, so any record a caller keeps holds every row's curves alive.
    """
    cfgs = list(cfgs)
    X = np.asarray(X, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if X.ndim != 3 or 0 in X.shape or outputs.shape != X.shape[:2] or omega.shape != (X.shape[0], X.shape[2]):
        raise DimensionMismatch(
            f"expected X (S, N, n) with S, N, n >= 1, outputs (S, N), omega (S, n); "
            f"got {X.shape}, {outputs.shape}, {omega.shape}"
        )
    n = X.shape[2]
    for cfg in cfgs:
        if cfg.dim != n:
            raise DimensionMismatch(f"config dim {cfg.dim} != data weight dimension {n}")
    return _run_rows(cfgs, X, outputs, omega) if cfgs else []


def _run_rows(cfgs, X, outputs, omega) -> list[list[RunRecord]]:
    """The time loop of :func:`run_batch`, in float64 for every row.

    The (config, seed) rows are flattened, ordered by factor group so that a
    group's live rows are one slice, and each carries its seed index.  The
    signed groups sort after the other factor groups and before the rows
    without a factor, so the signed rows are one slice too.  The rows step B
    steps at a time, B fixed so that the first block's weight history takes
    about ``_BLOCK_BYTES``.  Within a block only the recurrence runs: each
    step writes the weights into a (B + 2, L + Ls, n) history, whose first L
    rows hold the real parts of the L live rows and whose last Ls rows the
    imaginary parts of the Ls live signed rows.  The error and the gradient
    run over the L real-part rows; a signed group's complex factor scales
    its rows' gradient into their real-part and imaginary-part rows; the
    momentum and the weight add run over all L + Ls rows.  The errors go
    into a (B, L) buffer and the intermediates into work buffers made once
    per block, so a step allocates only what ``np.vecdot`` and
    :func:`fractional_power` return.  After the block the curves and
    ``complex_events`` are computed from the history in bulk, each row's
    first non-finite or > 1e12 curve entry is found, and a row that stopped
    takes its final state from the history and leaves the batch.  A stopped
    row thus runs on for at most B - 1 steps whose results nothing reads;
    every sum is per row, so they touch no other row.
    """
    S, N, n = X.shape
    C = len(cfgs)
    R = C * S

    # rows ordered by factor group, so each group's live rows are one slice
    groups, group_of = _factor_groups(cfgs)
    order = np.argsort(group_of, kind="stable")
    cfg_of, seed_of = np.repeat(order, S), np.tile(np.arange(S), C)
    group_of = group_of[cfg_of]
    row_of = np.empty(C, dtype=np.int64)
    row_of[order] = np.arange(0, R, S)  # config c's seeds are rows row_of[c] + s
    row_of = row_of.tolist()
    # the signed rows, rows r0 .. r0 + Rs - 1, with a second row each for their imaginary parts
    complex_group = [kind == "signed" for kind, _ in groups]
    signed = np.isin(group_of, np.flatnonzero(complex_group))
    r0, Rs = int(signed.argmax()), int(np.count_nonzero(signed))

    # per-config parameters, one entry per row
    column = lambda values: np.array(values, dtype=np.float64)[cfg_of]  # noqa: E731
    # full width (R, n), so that no ufunc of a step broadcasts them
    full = lambda values: np.repeat(column(values)[:, None], n, axis=1)  # noqa: E731
    eta = column([cfg.eta for cfg in cfgs])
    beta = full([cfg.momentum for cfg in cfgs])
    guard = full([cfg.epsilon_guard for cfg in cfgs])
    B = max(1, _BLOCK_BYTES // ((R + Rs) * n * 8))

    curves = np.empty((S * curves_per_seed(cfgs), N))  # 2 R + Rs rows
    mse, werr, imag = curves[:R], curves[R : 2 * R], curves[2 * R :]
    real_imag = np.zeros(N)  # the one all-zero imag curve the real rows share
    iterations = np.zeros(R, dtype=np.int64)
    diverged = np.zeros(R, dtype=bool)
    events = np.zeros(R, dtype=np.int64)
    final = np.zeros((2, R, n))  # each row's final w_prev and w, real parts
    final_imag = np.zeros((2, Rs, n))  # and the signed rows' imaginary parts

    live = np.arange(R)
    start = np.zeros((2, R + Rs, n))  # the live rows' w_prev and w, the imaginary rows last
    X_by_time, outputs_by_time = X.transpose(1, 0, 2), outputs.T
    t0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and t0 < N:
            b, L = min(B, N - t0), live.size
            s0, s1 = np.searchsorted(live, [r0, r0 + Rs]).tolist()  # the live signed rows
            hist = np.concatenate([np.arange(L), np.arange(s0, s1)])  # the live row of each history row
            seeds, span = seed_of[live], slice(t0, t0 + b)
            Xb = np.take(X_by_time[span], seeds, axis=1)  # (b, L, n): each psi a contiguous (L, n)
            db = np.take(outputs_by_time[span], seeds, axis=1)
            eta_b, beta_b, guard_b = eta[live], beta[live[hist]], guard[live]

            H = np.empty((b + 2, hist.size, n))
            H[:2] = start
            E = np.empty((b, L))
            # the block's work buffers, which every step writes its results into
            scratch, scaled, grad = np.empty_like(H[0]), np.empty((L, 1)), np.empty_like(H[0])
            eta_err = scaled[:, 0]  # the (L,) view eta * err is written through
            grad_re, grad_im = grad[:L], grad[L:]  # the real-part rows' gradient, the imaginary rows' after it
            bounds = np.searchsorted(group_of[live], np.arange(len(groups) + 1)).tolist()
            scale_at = [
                (kind, e, slice(lo, hi), guard_b[lo:hi], grad[lo:hi], grad_im[lo - s0 : hi - s0] if cplx else None)
                for (kind, e), cplx, lo, hi in zip(groups, complex_group, bounds, bounds[1:])
                if lo < hi
            ]
            W_prev, W = H[0], H[1]
            for psi, d, err, re, W_new in zip(Xb, db, E, H[1:, :L], H[2:]):
                np.subtract(d, np.vecdot(psi, re), out=err)
                np.multiply(eta_b, err, out=eta_err)
                np.multiply(scaled, psi, out=grad_re)
                for kind, e, at, g, grad_at, imag_at in scale_at:
                    f = fractional_power(kind, re[at], g, e)
                    np.add(1.0, f, out=f)
                    if imag_at is not None:  # a complex factor: the imaginary rows first, from the unscaled gradient
                        np.multiply(grad_at, f.imag, out=imag_at)
                        f = f.real
                    np.multiply(grad_at, f, out=grad_at)
                np.multiply(beta_b, np.subtract(W, W_prev, out=scratch), out=scratch)
                W_prev, W = W, np.add(np.add(W, scratch, out=scratch), grad, out=W_new)

            # the block's diagnostics, from its history; Xb's buffer holds the temporaries
            m_b = np.multiply(E, E)
            diff = np.subtract(H[2:, :L], omega[seeds], out=Xb)
            e_b = np.sqrt(np.vecdot(diff, diff))
            worst = np.maximum(m_b, e_b)  # NaN propagates
            im = H[2:, L:]  # contiguous rows, as np.linalg.norm takes them
            i_b = np.sqrt(np.vecdot(im, im))
            np.maximum(worst[:, s0:s1], i_b, out=worst[:, s0:s1])
            bad = ~(worst <= DIVERGENCE_THRESHOLD)
            stopped = bad.any(axis=0)
            last = np.where(stopped, bad.argmax(axis=0), b - 1)  # each row's last step that counts
            mse[live, span] = m_b.T
            werr[live, span] = e_b.T
            live_signed = live[s0:s1]
            imag[live_signed - r0, span] = i_b.T
            # max |imag| of each step and row, a column at a time: a reduce over a short last axis is slow
            peak = functools.reduce(np.maximum, np.abs(im, out=Xb[:, s0:s1]).transpose(2, 0, 1))
            counts = np.arange(b)[:, None] <= last[s0:s1]
            events[live_signed] += np.count_nonzero(counts & (peak > 0.0), axis=0)
            iterations[live] = t0 + last + 1
            diverged[live] = stopped
            ends = H[last[hist] + np.arange(1, 3)[:, None], np.arange(hist.size)]  # (2, L + Ls, n)
            final[:, live], final_imag[:, live_signed - r0] = ends[:, :L], ends[:, L:]

            keep = ~stopped
            start, live = H[b:, keep[hist]], live[keep]
            t0 += b

    for arr in (mse, werr, imag, real_imag):
        arr.setflags(write=False)
    # each row's final (w_prev, w) and imag curve, a signed row's complex state rebuilt exactly from its two rows
    complex_final = np.empty((2, Rs, n), dtype=np.complex128)
    complex_final.real, complex_final.imag = final[:, r0 : r0 + Rs], final_imag
    states = [*final[:, :r0].swapaxes(0, 1), *complex_final.swapaxes(0, 1), *final[:, r0 + Rs :].swapaxes(0, 1)]
    imags = [real_imag] * r0 + list(imag) + [real_imag] * (R - r0 - Rs)
    iterations, events, diverged = iterations.tolist(), events.tolist(), diverged.tolist()
    records = []
    for c in range(C):
        per_seed = []
        for s, r in enumerate(range(row_of[c], row_of[c] + S)):
            k = iterations[r]
            w_prev, w = states[r]
            per_seed.append(
                RunRecord(
                    mse_curve=mse[r, :k],
                    weight_error_curve=werr[r, :k],
                    imag_curve=imags[r][:k],
                    diverged=diverged[r],
                    final_state=FilterState(w=w, w_prev=w_prev, iteration=k, complex_events=events[r]),
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
    """Shape verdict for the vector reading of the expansion's two sides,
    :func:`harxlab.shapecheck.eq25_verdict`: a mismatch for n >= 2, well-formed
    for n = 1 (the ordinary scalar expansion)."""
    from . import shapecheck  # loaded on first use, so the batch commands never load it

    return shapecheck.eq25_verdict(n)


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


def seed_aggregate(summaries) -> dict:
    """Aggregate the :func:`run_summary` dicts of one config's seeds.

    The terminal means and maximum cover the seeds that did not diverge and
    are NaN when every seed diverged; ``leak_fraction_mean`` and
    ``max_imag`` cover every seed.
    """
    ok = [s for s in summaries if not s["diverged"]]
    over_ok = lambda reduce, key: float(reduce([s[key] for s in ok])) if ok else float("nan")  # noqa: E731
    return {
        "diverged_count": len(summaries) - len(ok),
        "diverged_fraction": (len(summaries) - len(ok)) / len(summaries),
        "terminal_mse_mean": over_ok(np.mean, "terminal_mse"),
        "terminal_weight_error_mean": over_ok(np.mean, "terminal_weight_error"),
        "terminal_weight_error_max": over_ok(np.max, "terminal_weight_error"),
        "leak_fraction_mean": float(np.mean([s["leak_fraction"] for s in summaries])),
        "max_imag": float(np.max([s["max_imag"] for s in summaries])),
    }


def sweep_cells(cfgs, data: SeedData) -> list[dict]:
    """One :func:`seed_aggregate` cell per config; every config runs over
    every seed of ``data`` in one batch."""
    batch = run_batch(cfgs, data.X, data.outputs, data.omega)
    return [seed_aggregate([run_summary(r) for r in records]) for records in batch]


@dataclass(frozen=True)
class StabilityProbe:
    """One :func:`seed_aggregate` cell per grid step size, then the cell at
    the classical reference point 2 / lambda_max, with lambda_max measured
    from the first seed's dataset."""

    cells: tuple[dict, ...]
    lambda_max: float

    @property
    def diverged_fraction(self) -> np.ndarray:
        """The divergence fraction of each grid cell, the reference left out."""
        return np.array([cell["diverged_fraction"] for cell in self.cells[:-1]])


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
    return StabilityProbe(cells=tuple(sweep_cells(cfgs, data)), lambda_max=lam)


@functools.lru_cache(maxsize=8)
def _csv_template(k: int, real: bool) -> str:
    """The %-template of a k-row curve CSV, header and ``iter`` column filled
    in; a ``real`` record's imag cells are the literal ``0``."""
    imag = "0" if real else "%.17g"
    return "iter,mse,weight_error,imag_norm\n" + "".join(f"{i},%.17g,%.17g,{imag}\n" for i in range(k))


def run_record_csv(record: RunRecord) -> str:
    """Plot-ready learning curves: header ``iter,mse,weight_error,imag_norm``,
    one row per iteration, %.17g cells, LF line endings.

    The text is a cached %-template per (row count, real) filled with the
    curve values.  A record whose imag curve is all +0.0 is real: its template
    holds the literal ``0`` that %.17g would print.  -0.0 (``-0``) and NaN
    (``nan``) print otherwise, so neither makes a record real.
    """
    imag = record.imag_curve
    real = not (imag.any() or np.signbit(imag).any())
    curves = [record.mse_curve, record.weight_error_curve] + ([] if real else [imag])
    return _csv_template(len(imag), real) % tuple(np.stack(curves, axis=1).ravel().tolist())


def run_summary(record: RunRecord) -> dict:
    """Scalar summary of one run (JSON-ready apart from non-finite floats),
    the one reader of a record's curves for every number a command reports.
    The run leaks where its imaginary-norm curve exceeds 1e-15."""
    hot = record.imag_curve > LEAK_EPS
    leaks = int(np.count_nonzero(hot))
    return {
        "iterations": int(hot.size),
        "diverged": bool(record.diverged),
        "terminal_mse": float(record.mse_curve[-1]),
        "terminal_weight_error": float(record.weight_error_curve[-1]),
        "complex_events": int(record.final_state.complex_events),
        "max_imag": float(record.imag_curve.max()),
        "first_leak_iter": int(hot.argmax()) if leaks else None,
        "leak_fraction": leaks / hot.size,
    }


def correlation_summary(est: CorrelationEstimate, omega_opt: np.ndarray) -> dict:
    """JSON-ready document for a correlation estimate and the Wiener solution
    computed from it."""
    return {
        "sample_count": est.sample_count,
        "R": est.R.tolist(),
        "p": est.p.tolist(),
        "eigenvalues": est.eigenvalues.tolist(),
        "lambda_max": est.lambda_max,
        "eta_stability_reference": 2.0 / est.lambda_max,
        "omega_opt": np.asarray(omega_opt).tolist(),
    }
