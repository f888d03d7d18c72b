"""Identification experiments and diagnostics.

Empirical correlations and the Wiener solution they induce, learning-curve
runs with divergence detection (every config and seed of a command stepping
together in one batched kernel), a truncated-binomial residual checked
against the direct power, and an empirical step-size stability probe that
replaces any analytic bound with measured divergence fractions.

Every number a command reports about a run, complex leakage included, comes
from the summary :func:`run_batch` reduces block by block (a record's
:func:`run_summary`), and every number about a config's seeds from
:func:`seed_aggregate` over those summaries.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataOverflow, DimensionMismatch, DomainError, EmptyDataset, SingularCorrelation, record
from .filters import FilterConfig, FilterState
from .plant import Dataset, HarxPlant, draw_signals, regressor_rows, true_weight_vector

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
# the size of the regressor rows one chunk of the correlation sums takes
_CHUNK_BYTES = 512 * 1024


@record
class CorrelationEstimate:
    """Empirical R = E[psi psi^T] and p = E[psi s], with the spectrum of R.

    After the shapes are checked, R and p must be finite (else
    DataOverflow) and R symmetric to within 1e-12 * max|R|.  Eigenvalues
    are sorted descending; tiny negatives (down to -1e-10 * lambda_max) are
    tolerated as sampling/roundoff noise on a PSD matrix.  These are the
    checks :func:`_checked` makes for every seed of :func:`simulate_seeds`,
    made in this order, on a stack of one.  The estimate owns copies of its
    arrays and freezes them.
    """

    R: np.ndarray
    p: np.ndarray
    eigenvalues: np.ndarray
    sample_count: int

    def __post_init__(self):
        R, p, eig = (np.array(arr, dtype=np.float64) for arr in (self.R, self.p, self.eigenvalues))
        for arr, name in ((R, "R"), (p, "p"), (eig, "eigenvalues")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if p.ndim != 1 or R.shape != p.shape * 2 or eig.shape != p.shape:  # p (n,), R (n, n), eig (n,)
            raise DimensionMismatch(f"inconsistent estimate shapes: R {R.shape}, p {p.shape}, eig {eig.shape}")
        _checked(R[None], p[None], eig[None])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])


def _checked(R, p, eig, ridge=None):
    """Check the correlations of S runs, stacked as R (S, n, n), p (S, n) and
    the eigenvalues of R (S, n), and with a ridge solve (R + ridge I) omega
    = p for each.

    Every run gets the checks of one run, in this order: R and p finite; R
    symmetric; the eigenvalues sorted descending; R PSD up to tolerance; and
    with a ridge, R + ridge I not singular.  The first run that fails a
    check raises the first check it fails, as if each run were checked
    alone, one after another: a singular run raises before a later run that
    overflows.  One ``solve`` call takes the whole stack, and numpy's linalg
    calls LAPACK once per matrix, so each run's omega has the bits it has
    alone.  Returns omega (S, n), or None without a ridge.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = eig[:, -1], eig[:, 0]
        checks = [  # (which runs fail, the error, its message), in the order the checks are made
            (~(np.isfinite(R).all(axis=(1, 2)) & np.isfinite(p).all(axis=1)), DataOverflow,
             "R or p is not finite: the data overflow float64"),
            (np.abs(R - R.transpose(0, 2, 1)).max(axis=(1, 2)) > _SYMMETRY_RTOL * np.abs(R).max(axis=(1, 2)),
             ValueError, "R must be symmetric to within 1e-12 * max|R|"),
            ((eig[:, 1:] > eig[:, :-1]).any(axis=1), ValueError, "eigenvalues must be sorted descending"),
            (lo < -_PSD_RTOL * np.maximum(hi, 0.0), ValueError,
             "R is not PSD up to tolerance: min eigenvalue {lo}, lambda_max {hi}"),
        ]
        if ridge is not None:
            checks.append((lo + ridge <= _SINGULAR_RTOL * (hi + ridge), SingularCorrelation, "smallest eigenvalue "
                           "{lo:.3e} + ridge {ridge:.3e} is not above 1e-12 * (lambda_max {hi:.3e} + ridge)"))
        failed = np.array([fails for fails, _, _ in checks])  # (checks, S)
        if failed.any():
            s, check = np.argwhere(failed.T)[0]  # the first run that fails, and the first check it fails
            _, error, message = checks[check]
            raise error(message.format(lo=lo[s], hi=hi[s], ridge=ridge))
        return None if ridge is None else np.linalg.solve(R + ridge * np.eye(R.shape[-1]), p[..., None])[..., 0]


def _correlations(runs, N: int):
    """R, p and the eigenvalues of R, stacked over ``runs``, each an iterable
    of the (rows, outputs) chunks of N rows, in row order.

    A run's chunk sums X_c^T X_c and X_c^T s_c are added up in arrival
    order, the first taken as it is, so a single chunk gives exactly one
    ``X.T @ X``; each run's chunks are produced and summed before the next
    run's.  R = X^T X / N is made exactly symmetric despite BLAS rounding,
    and p = X^T s / N.  Every chunk is produced and summed under one
    errstate: an overflow stays in R or p, for :func:`_checked` to report.
    One ``eigvalsh`` call takes the whole stack, each matrix's eigenvalues
    with the bits they have alone; it sees a zero matrix in place of a
    non-finite R, which never gets past :func:`_checked`.
    """
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):
        for chunks in runs:
            gram = cross = None
            for Xc, yc in chunks:
                if gram is None:
                    gram, cross = Xc.T @ Xc, Xc.T @ yc
                else:
                    gram += Xc.T @ Xc
                    cross += Xc.T @ yc
            sums.append((gram, cross))
        gram, cross = map(np.array, zip(*sums))
        R = gram / N
        R = 0.5 * (R + R.transpose(0, 2, 1))
        # descending, copied to be contiguous: an operand with negative strides takes buffered-iteration scratch
        eig = np.linalg.eigvalsh(np.where(np.isfinite(R).all(axis=(1, 2))[:, None, None], R, 0.0))[:, ::-1].copy()
        return R, cross / N, eig


def _estimate(chunks, N: int) -> CorrelationEstimate:
    """The checked estimate of one run's N rows, which arrive as ``chunks``."""
    R, p, eig = _correlations([chunks], N)
    return CorrelationEstimate(R=R[0], p=p[0], eigenvalues=eig[0], sample_count=N)


def _chunk_rows(n: int) -> int:
    """Rows of n float64 regressors that fill about ``_CHUNK_BYTES``, a multiple
    of 8: a matrix-vector product then gives a chunk's rows the bits it gives
    them within the whole matrix."""
    return max(8, _CHUNK_BYTES // (8 * n) // 8 * 8)


def estimate_correlations(dataset: Dataset) -> CorrelationEstimate:
    """Sample-mean estimates R = (1/N) sum psi psi^T and p = (1/N) sum psi s,
    summed over row slices of ``_CHUNK_BYTES``."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot estimate correlations from zero samples")
    X, y = dataset.X, np.asarray(dataset.outputs, dtype=np.float64)
    N, step = X.shape[0], _chunk_rows(X.shape[1])
    return _estimate(((X[a : a + step], y[a : a + step]) for a in range(0, N, step)), N)


def _simulate(plant: HarxPlant, input_kind: str, T: int, rng, X=None, outputs=None):
    """Yield the (rows, outputs) chunks of a length-``T`` run, for :func:`_correlations`.

    Its inputs are drawn, and held whole, when the first chunk is asked
    for.  Each ``_CHUNK_BYTES`` of regressor rows is then built, its outputs
    taken and its noise drawn into one reused buffer and added to them, for
    their sums to be taken while they are in cache; the noise is never held
    whole.  The rows and outputs go into ``X`` (T - m, n) and ``outputs``
    (T - m,) when given, else into one reused chunk buffer each.  They
    equal, bit for bit, those :func:`harxlab.plant.generate_sequence` gives.
    Overflowing noise stays inf under :func:`_correlations`' errstate.
    """
    inputs, noise = draw_signals(plant, input_kind, T=T, rng=rng)
    N, w, step = T - plant.m, true_weight_vector(plant), _chunk_rows(plant.n)
    if X is None:
        X, outputs = np.empty((min(N, step), plant.n)), np.empty(min(N, step))
    if noise is not None:
        scratch = np.empty(min(N, step))
    for a in range(0, N, step):
        b = min(a + step, N)
        rows = slice(a, b) if len(X) == N else slice(0, b - a)  # a chunk buffer takes each chunk at its top
        Xc = regressor_rows(plant, inputs, a, b, X[rows])
        yc = np.matmul(Xc, w, out=outputs[rows])
        if noise is not None:
            yc += noise(scratch[: b - a])
        yield Xc, yc


def stream_correlations(
    plant: HarxPlant, input_kind: str = "white_gaussian", *, T: int, rng: np.random.Generator | None = None
) -> CorrelationEstimate:
    """``estimate_correlations(generate_sequence(plant, input_kind, T=T, rng=rng))``,
    bit for bit, without the (T - m, n) regressor matrix or the whole noise:
    the rows and the noise pass through reused chunk buffers."""
    return _estimate(_simulate(plant, input_kind, T, rng), T - plant.m)


def wiener_solution(est: CorrelationEstimate, ridge: float = 0.0) -> np.ndarray:
    """Solve (R + ridge I) omega = p.

    No silent regularization: with the default ridge of zero a rank-deficient
    R raises SingularCorrelation instead of returning a least-norm answer.
    R + ridge I counts as singular when its smallest eigenvalue is not above
    1e-12 times its largest.  The estimate goes through :func:`_checked`, the
    checks :func:`simulate_seeds` makes for every seed, as a stack of one:
    the estimate's own checks (which it passed when it was made) come first,
    then the singularity check, then one ``solve``.
    """
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    return _checked(est.R[None], est.p[None], est.eigenvalues[None], ridge)[0]


@record
class RunRecord:
    """Learning curves of one run, the final filter state and the run's summary.

    ``weight_error_curve`` measures ||Re(w(t)) - omega_opt|| against the
    empirical Wiener solution of the run's own dataset (stored in
    ``omega_opt``).  A run is flagged diverged as soon as any curve entry is
    non-finite or exceeds 1e12, and stops there; all three curves always
    share one length of at least 1.  The curves and ``omega_opt`` are
    read-only; only :func:`run_record_csv` reads the curves.  ``summary`` is
    the dict :func:`run_summary` hands out, reduced from the curves as
    :func:`run_batch` computed them.
    """

    mse_curve: np.ndarray
    weight_error_curve: np.ndarray
    imag_curve: np.ndarray
    diverged: bool
    final_state: FilterState
    omega_opt: np.ndarray
    summary: dict


@record
class SeedData:
    """Every seed's dataset, simulated once and stacked for :func:`run_batch`.

    ``X`` is (S, N, n), ``outputs`` (S, N), ``omega`` (S, n) the Wiener
    solution of each seed's own data, and ``lambda_max`` (S,) the largest
    eigenvalue of each seed's correlation matrix.  All four are read-only
    views; the arrays they view stay as writable as the caller made them.
    """

    X: np.ndarray
    outputs: np.ndarray
    omega: np.ndarray
    lambda_max: np.ndarray

    def __post_init__(self):
        for name in self.__match_args__:
            view = getattr(self, name)[...]
            view.setflags(write=False)
            object.__setattr__(self, name, view)


def simulate_seeds(plant: HarxPlant, T: int, seeds, input_kind: str = "white_gaussian") -> SeedData:
    """Simulate each seed's dataset once and solve its Wiener reference.

    One pass of the chunk loop of :func:`stream_correlations` per seed fills
    the seed's rows and outputs and sums its correlations; its inputs and
    noise are drawn for that pass and dropped after it.  The seed drives
    the input and noise streams, so a seed's data is the same whichever
    other seeds it is simulated with.  After the last seed, one stacked
    pass scales R and p, takes one ``eigvalsh`` of the (S, n, n) stack
    (:func:`_correlations`), makes the checks of ``CorrelationEstimate`` and
    ``wiener_solution`` (ridge 0) and one ``solve`` (:func:`_checked`).
    Every seed's ``omega`` and ``lambda_max`` have the bits
    ``wiener_solution`` and ``estimate_correlations`` give that seed alone,
    and an error is the one the seeds would raise checked one by one: the
    first seed that fails a check raises the first check it fails
    (finite, symmetric, sorted, PSD, singular).
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("at least one seed is required")
    # one copy of every seed's rows, each seed's filled in place; T <= m fails in draw_signals
    X = np.empty((len(seeds), max(T - plant.m, 0), plant.n))
    outputs = np.empty(X.shape[:2])
    runs = (_simulate(plant, input_kind, T, np.random.default_rng(seed), X[s], outputs[s])
            for s, seed in enumerate(seeds))
    R, p, eig = _correlations(runs, X.shape[1])
    return SeedData(X=X, outputs=outputs, omega=_checked(R, p, eig, ridge=0.0), lambda_max=eig[:, 0])


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


class _Tally:
    """Each row's running summary numbers, folded in one time block at a time.

    The numbers are those of :func:`run_summary`: the iterations, whether the
    row diverged, its terminal mse and weight error, its complex events and,
    from its imaginary-norm curve, the maximum, the leaks (entries above
    ``LEAK_EPS``) and the first leak.  A row without a signed factor is never
    folded as signed, so it reads 0 events, a maximum of 0.0 and no leak.
    """

    def __init__(self, R: int):
        self.iterations = np.zeros(R, dtype=np.int64)
        self.diverged = np.zeros(R, dtype=bool)
        self.terminal = np.zeros((2, R))  # the mse and the weight error at each row's last step
        self.events = np.zeros(R, dtype=np.int64)
        self.max_imag = np.zeros(R)
        self.leaks = np.zeros(R, dtype=np.int64)
        self.first_leak = np.full(R, -1, dtype=np.int64)  # -1 until a row leaks

    def fold(self, t0, rows, stopped, last, m_b, e_b, signed, i_b, peak) -> None:
        """Fold the block of steps t0, t0 + 1, ... into rows ``rows``.

        ``m_b`` and ``e_b`` (b, len(rows)) hold the rows' mse and weight
        error, ``last`` each row's last step in the block that counts and
        ``stopped`` whether the row diverged there.  ``i_b`` and ``peak``
        (b, len(rows[signed])) hold the imaginary norms and the largest
        |imaginary part| of the signed rows ``rows[signed]``.  A step after a
        row's last counts for nothing; a NaN at a step that counts makes the
        maximum NaN, as in ``ndarray.max``.
        """
        self.iterations[rows] = t0 + last + 1
        self.diverged[rows] = stopped
        cols = np.arange(rows.size)
        self.terminal[:, rows] = m_b[last, cols], e_b[last, cols]
        rows, counted = rows[signed], np.arange(len(i_b))[:, None] <= last[signed]
        self.events[rows] += np.count_nonzero(counted & (peak > 0.0), axis=0)
        i_b = np.where(counted, i_b, 0.0)
        self.max_imag[rows] = np.maximum(self.max_imag[rows], i_b.max(axis=0))
        hot = i_b > LEAK_EPS
        self.leaks[rows] += np.count_nonzero(hot, axis=0)
        first = self.first_leak[rows]
        self.first_leak[rows] = np.where((first < 0) & hot.any(axis=0), t0 + hot.argmax(axis=0), first)

    def summaries(self) -> list[dict]:
        """Each row's :func:`run_summary` dict, in row order."""
        columns = (self.iterations, self.diverged, *self.terminal, self.events, self.max_imag, self.first_leak,
                   self.leaks)
        return [
            {
                "iterations": k,
                "diverged": diverged,
                "terminal_mse": mse,
                "terminal_weight_error": werr,
                "complex_events": events,
                "max_imag": max_imag,
                "first_leak_iter": first if first >= 0 else None,
                "leak_fraction": leaks / k,
            }
            for k, diverged, mse, werr, events, max_imag, first, leaks in zip(*(c.tolist() for c in columns))
        ]


def run_batch(cfgs, X, outputs, omega, curves: bool = True) -> list[list[RunRecord]] | list[list[dict]]:
    """Run every config on every seed's data, all (config, seed) rows stepping together.

    ``X`` (S, N, n) with S, N, n >= 1, ``outputs`` (S, N) and ``omega`` (S, n)
    hold the seeds' regressor matrices, desired outputs and Wiener solutions;
    they are broadcast over the configs, never tiled.  The configs may be of
    any variants; each is read through its ``momentum`` and ``factor``
    properties only.  Row (c, s) starts from zero weights and applies,
    element by element and in the same order, the operations of
    :func:`harxlab.filters.step`::

        w' = w + momentum (w - w_prev) + eta e psi (1 + factor)

    with the factor ``step`` takes from
    :func:`harxlab.filters.fractional_power`, made here by the same ufunc
    calls, and no factor (0) for a config without one.  Every row steps in
    one float64 time loop.  A row whose factor kind is
    ``signed`` keeps its weights' real and imaginary parts in two real rows,
    and its final state is the complex128 vector rebuilt exactly from them;
    every other row is real throughout, so its imaginary parts are exactly
    0.  On a signed row the complex products of ``step`` lose only their
    terms ``0 * x``, with x finite up to the step a row stops at.  Such a
    term can change only the sign of a zero, and that sign never reaches a
    weight: no weight is ever -0.0, as a sum is -0.0 only when both of its
    terms are, and every weight starts at +0.0.  The imaginary part f_im of a
    signed factor scales the gradient as it is, where ``step``'s
    ``1 + factor`` passes it through ``0.0 + f_im``.  The two differ only for
    f_im = -0.0, which turns a finite gradient entry into a zero of the other
    sign, and by the same argument that sign never reaches a weight either.
    Inner products and norms are one BLAS dot per contiguous row
    (``np.vecdot``), so no row's sums depend on the other rows.  A record therefore equals, bit for bit, what
    a loop over ``step`` gives.

    The R = C S rows are ordered by factor group, so that a group's live
    rows are one slice; the signed groups sort after the other factor groups
    and before the rows without a factor, so the Rs signed rows are one
    slice too.  Their imaginary parts are Rs more rows after all R, in a
    block's weight history and in the final states alike.

    Time runs in blocks of B steps, each B set so that the block's weight
    history, (B + 2, L + Ls, n) for its L live rows of which Ls are signed,
    takes about ``_BLOCK_BYTES``, so blocks lengthen as rows stop.  Within a
    block only the recurrence runs, each step writing into work buffers made
    once per block.  One of them, F (live factor rows, n), holds 1 + Re(factor)
    of every factor row: each live group writes its Re(factor) into its rows,
    and one add of a buffer of ones (F + 1 is 1 + F, with no Python float
    converted per call) and one multiply then scale every factor row's
    gradient.  Each group makes the oracle's ufunc calls itself, bound once
    per block, into buffers made once per block; each np.power exponent is a
    0-d array: complex128 for a signed group, as np.power would cast a
    float64 one at every call, float64 otherwise.  It holds the value
    np.power converts the Python float to, so np.power keeps its scalar paths
    (sqrt for 0.5) and gives the same bits.  A signed group copies Re(w) into
    the real part of its complex input buffer, whose imaginary part stays
    +0.0 as ``astype(complex128)`` makes it, and np.power writes into its
    complex output buffer, whose imaginary part scales the unscaled gradient
    into the imaginary rows before its real part is copied into F.  An
    ``elementwise_abs`` group makes np.abs, np.maximum with its guards and
    np.power in place in F.  A ``euclidean_norm`` group writes each row's
    norm into a buffer of its rows, floors it with np.maximum, and writes
    each row's Python float power over the row in F.  A group whose guards
    are all 0 skips the floor: |w_j| and ||w|| are never -0.0, and NaN
    stays NaN, so a zero guard floors nothing, bit for bit.  So a step
    allocates only what the error's ``np.vecdot`` returns and, in a
    ``euclidean_norm`` group, the array its row powers are converted to.
    The curves are computed once per block from its history, and folded
    into each row's running summary numbers.  A row stops at its first curve
    entry that is non-finite or above 1e12: its curves end there, its final
    state is the state after that step, nothing after it counts towards its
    summary, and it leaves the batch at the end of the block.  It thus runs
    on for at most B - 1 steps whose results nothing reads; every sum is per
    row, so they touch no other row.

    Returns ``records[c][s]`` in the order of ``cfgs``, every array in them
    read-only.  The curves are views into buffers the batch's rows share, so
    a record a caller keeps holds every row's curves alive; each
    ``omega_opt`` is a view of the batch's own copy of ``omega``.  With
    ``curves`` false no curve and no final state is kept and no record is
    built: the result is ``summaries[c][s]``, the dicts :func:`run_summary`
    would return for the records.
    """
    cfgs = list(cfgs)
    X = np.asarray(X, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    omega = np.array(omega, dtype=np.float64)  # the records' omega_opt views, frozen below
    if X.ndim != 3 or 0 in X.shape or outputs.shape != X.shape[:2] or omega.shape != (X.shape[0], X.shape[2]):
        raise DimensionMismatch(
            f"expected X (S, N, n) with S, N, n >= 1, outputs (S, N), omega (S, n); "
            f"got {X.shape}, {outputs.shape}, {omega.shape}"
        )
    S, N, n = X.shape
    for cfg in cfgs:
        if cfg.dim != n:
            raise DimensionMismatch(f"config dim {cfg.dim} != data weight dimension {n}")
    if not cfgs:
        return []
    omega.setflags(write=False)
    R = len(cfgs) * S

    groups, group_of = _factor_groups(cfgs)
    order = np.argsort(group_of, kind="stable")
    cfg_of, seed_of = np.repeat(order, S), np.tile(np.arange(S), len(cfgs))
    group_of = group_of[cfg_of]
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

    tally = _Tally(R)
    if curves:
        buffer = np.empty((S * curves_per_seed(cfgs), N))  # 2 R + Rs rows
        mse, werr, imag = buffer[:R], buffer[R : 2 * R], buffer[2 * R :]
        real_imag = np.zeros(N)  # the one all-zero imag curve the real rows share
        final = np.zeros((2, R + Rs, n))  # each row's final w_prev and w, the imaginary rows last

    live = np.arange(R)
    start = np.zeros((2, R + Rs, n))  # the live rows' w_prev and w, the imaginary rows last
    X_by_time, outputs_by_time = X.transpose(1, 0, 2), outputs.T
    t0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and t0 < N:
            L = live.size
            s0, s1 = np.searchsorted(live, [r0, r0 + Rs]).tolist()  # the live signed rows
            b = min(max(1, _BLOCK_BYTES // ((L + s1 - s0) * n * 8)), N - t0)
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
            F = np.empty((bounds[-1], n))  # 1 + Re(factor) of each live factor row, which scales its gradient
            one = np.ones_like(F)  # the 1 added to Re(factor), as a buffer: no float converted per step
            grad_f = grad[: bounds[-1]]
            signed_at, abs_at, power_at = [], [], []  # per live group, by the path its factor takes
            for (kind, e), lo, hi in zip(groups, bounds, bounds[1:]):
                if lo == hi:
                    continue
                at, g = slice(lo, hi), guard_b[lo:hi]
                if kind == "signed":  # Re(w) goes into z's real part; its imaginary part stays +0.0
                    z, f = np.zeros((2, hi - lo, n), np.complex128)
                    signed_at.append((at, z.real, z, np.array(e, np.complex128), f, f.real, f.imag, grad[at],
                                      grad_im[lo - s0 : hi - s0], F[at]))
                elif kind == "elementwise_abs" and not g.any():
                    abs_at.append((at, np.array(e), F[at]))
                elif kind == "elementwise_abs":  # floored at its guards in F[at]
                    power_at.append((at, np.array(e), g, None, F[at]))
                else:  # each row's norm, floored where a guard is not 0, its power broadcast through F[at].T
                    power_at.append((at, e, g[:, 0] if g.any() else None, np.empty(hi - lo), F[at].T))
            subtract, multiply, add, vecdot, absolute, power, maximum, sqrt = (
                np.subtract, np.multiply, np.add, np.vecdot, np.absolute, np.power, np.maximum, np.sqrt)
            W_prev, W = H[0], H[1]
            for psi, d, err, re, W_new in zip(Xb, db, E, H[1:, :L], H[2:]):
                subtract(d, vecdot(psi, re), err)
                multiply(eta_b, err, eta_err)
                multiply(scaled, psi, grad_re)
                for at, z_re, z, e, f, f_re, f_im, grad_at, imag_at, F_at in signed_at:
                    z_re[...] = re[at]
                    power(z, e, f)
                    multiply(grad_at, f_im, imag_at)  # the imaginary rows, from the unscaled gradient
                    F_at[...] = f_re
                for at, e, F_at in abs_at:
                    power(absolute(re[at], F_at), e, F_at)
                for at, e, g, norm, F_at in power_at:
                    if norm is None:
                        power(maximum(absolute(re[at], F_at), g, out=F_at), e, F_at)
                        continue
                    x = re[at]
                    sqrt(vecdot(x, x, out=norm), norm)
                    if g is not None:
                        maximum(norm, g, out=norm)
                    F_at[...] = [b**e for b in norm.tolist()]
                if grad_f.size:
                    add(F, one, F)
                    multiply(grad_f, F, grad_f)
                multiply(beta_b, subtract(W, W_prev, scratch), scratch)
                W_prev, W = W, add(add(W, scratch, scratch), grad, W_new)

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
            # max |imag| of each step and row, a column at a time: a reduce over a short last axis is slow
            peak = functools.reduce(np.maximum, np.abs(im, out=Xb[:, s0:s1]).transpose(2, 0, 1))
            tally.fold(t0, live, stopped, last, m_b, e_b, slice(s0, s1), i_b, peak)
            if curves:
                mse[live, span] = m_b.T
                werr[live, span] = e_b.T
                live_signed = live[s0:s1]
                imag[live_signed - r0, span] = i_b.T
                ends = H[last[hist] + np.arange(1, 3)[:, None], np.arange(hist.size)]  # (2, L + Ls, n)
                final[:, np.concatenate([live, live_signed + (R - r0)])] = ends

            keep = ~stopped
            start, live = H[b:, keep[hist]], live[keep]
            t0 += b

    rows = summaries = tally.summaries()  # each row's summary, or with curves its record
    if curves:
        for arr in (mse, werr, imag, real_imag):
            arr.setflags(write=False)
        # a signed row's final (w_prev, w), rebuilt exactly from its two rows
        signed_final = final[:, r0 : r0 + Rs].astype(np.complex128)
        signed_final.imag = final[:, R:]
        rows = []
        for r, (s, summary) in enumerate(zip(seed_of.tolist(), summaries)):
            j = r - r0 if r0 <= r < r0 + Rs else None  # a signed row's index among the signed rows
            w_prev, w = final[:, r] if j is None else signed_final[:, j]
            k, events = summary["iterations"], summary["complex_events"]
            rows.append(
                RunRecord(
                    mse_curve=mse[r, :k],
                    weight_error_curve=werr[r, :k],
                    imag_curve=(real_imag if j is None else imag[j])[:k],
                    diverged=summary["diverged"],
                    final_state=FilterState(w=w, w_prev=w_prev, iteration=k, complex_events=events),
                    omega_opt=omega[s],
                    summary=summary,
                )
            )
    # config c's seeds are the S rows from its place in the row order
    return [rows[r : r + S] for r in (np.argsort(order) * S).tolist()]


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


@record
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
    every seed of ``data`` in one batch, which keeps no curves."""
    batch = run_batch(cfgs, data.X, data.outputs, data.omega, curves=False)
    return [seed_aggregate(summaries) for summaries in batch]


@record(eq=True)
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


@functools.lru_cache(maxsize=2)
def _csv_template(k: int, real: bool) -> str:
    """The %-template of a k-row curve CSV, header and ``iter`` column filled
    in; a ``real`` record's imag cells are the literal ``0``.  The cache keeps
    the two templates the memory bound of ``simulate`` counts."""
    row = ",%.17g,%.17g,0\n" if real else ",%.17g,%.17g,%.17g\n"
    return "iter,mse,weight_error,imag_norm\n" + row.join(map(str, range(k))) + (row if k else "")


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
    """Scalar summary of one run (JSON-ready apart from non-finite floats), a
    copy of ``record.summary``.  The numbers are those :func:`run_batch`
    reduces from the curves block by block: the iterations, the divergence
    flag, the terminal mse and weight error, the complex events, the maximum
    imaginary norm, and the leaks, where the imaginary norm exceeds 1e-15, as
    the first leak's iteration and the leaks' share of the iterations."""
    return dict(record.summary)


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
