"""The one adaptive update rule of the LMS family.

Four variants read one recursion, w' = w + momentum (w - w_prev) + eta e psi
(1 + factor), and differ only in what they put in it
(:attr:`FilterConfig.momentum` and :attr:`FilterConfig.factor`):

* ``lms`` — plain stochastic gradient on the squared prediction error: no
  momentum, no factor,
* ``momentum_lms`` — adds the heavy-ball term beta * (w - w_prev),
* ``flms_signed`` — scales the gradient term by component-wise signed
  fractional powers of the weights, taken on the principal complex branch, so
  any negative weight component leaks imaginary mass into the state,
* ``mflms_modulus`` — the modulus-guarded momentum-fractional variant, which
  stays real by construction under either reading of the magnitude factor
  (component-wise absolute values, or one Euclidean-norm scalar).

:func:`step` is the pure transition ``(state, config, regressor, desired) ->
(new_state, record)``: inputs are never mutated, so a recorded sequence
replays bit-identically.  :func:`fractional_power` is the one implementation
of the factor, shared by :func:`step` and the batched kernel
:func:`harxlab.analysis.run_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

VARIANTS = ("lms", "momentum_lms", "flms_signed", "mflms_modulus")
POWER_INTERPRETATIONS = ("elementwise_abs", "euclidean_norm")
# The FilterConfig fields each variant's update reads; it ignores the others.
VARIANT_FIELDS = {
    "lms": ("eta",),
    "momentum_lms": ("eta", "beta"),
    "flms_signed": ("eta", "beta", "v"),
    "mflms_modulus": ("eta", "beta", "v", "power_interpretation", "epsilon_guard"),
}


@dataclass(frozen=True)
class FilterConfig:
    """Variant selection plus step, momentum, and fractional parameters.

    ``eta`` is the finite gradient step size (0 is tolerated for degenerate
    algebraic checks), ``beta`` the momentum weight in [0, 1), ``v`` the
    fractional order in (0, 1] (v = 1 recovers the integer-order update) and
    ``epsilon_guard`` floors |w| before the fractional power is taken.
    :data:`VARIANT_FIELDS` lists the fields each variant reads.
    """

    variant: str
    eta: float
    dim: int
    beta: float = 0.0
    v: float = 1.0
    power_interpretation: str = "elementwise_abs"
    epsilon_guard: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 <= self.eta < np.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not 0.0 < self.v <= 1.0:
            raise ValueError(f"v must lie in (0, 1], got {self.v}")
        if self.power_interpretation not in POWER_INTERPRETATIONS:
            raise ValueError(
                f"power_interpretation must be one of {POWER_INTERPRETATIONS}, got {self.power_interpretation!r}"
            )
        if not 0.0 <= self.epsilon_guard < np.inf:
            raise ValueError(f"epsilon_guard must be finite and >= 0, got {self.epsilon_guard}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @property
    def momentum(self) -> float:
        """The coefficient of (w - w_prev) in the update: ``beta``, or 0.0 for ``lms``."""
        return 0.0 if self.variant == "lms" else self.beta

    @property
    def factor(self) -> tuple[str, float] | None:
        """The factor on the gradient as ``(kind, 1 - v)``, kind ``signed``,
        ``elementwise_abs`` or ``euclidean_norm``; None for ``lms`` and
        ``momentum_lms``, whose gradient stays unscaled."""
        if self.variant in ("lms", "momentum_lms"):
            return None
        return ("signed" if self.variant == "flms_signed" else self.power_interpretation, 1.0 - self.v)


@dataclass(frozen=True, eq=False)
class FilterState:
    """Current and previous weights plus complex-leak bookkeeping.

    Weights keep their own dtype, at least float64: a real variant's stay
    float64, as in the batched kernel, and the signed fractional variant's
    turn complex through :func:`step`'s own arithmetic once its factor is
    complex.  ``complex_events`` counts steps whose post-update weights carry
    any imaginary part.  The state owns its arrays and freezes them.
    """

    w: np.ndarray
    w_prev: np.ndarray
    iteration: int = 0
    complex_events: int = 0

    def __post_init__(self):
        w, w_prev = np.asarray(self.w), np.asarray(self.w_prev)
        dtype = np.result_type(w, w_prev, np.float64)
        w, w_prev = np.array(w, dtype=dtype), np.array(w_prev, dtype=dtype)  # owned copies, frozen below
        if w.ndim != 1 or w.shape != w_prev.shape:
            raise DimensionMismatch(f"w and w_prev must be equal-length vectors, got {w.shape} and {w_prev.shape}")
        w.setflags(write=False)
        w_prev.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_prev", w_prev)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics: the prediction error and the norm of the
    imaginary weight mass after the step (zero for the real-only variants)."""

    error: float
    imag_norm: float


def initial_state(cfg: FilterConfig) -> FilterState:
    """All-zero start, the usual LMS convention."""
    w = np.zeros(cfg.dim)
    return FilterState(w=w, w_prev=w.copy())


def _psi(reg, n: int) -> np.ndarray:
    values = np.asarray(reg, dtype=np.float64)
    if values.shape != (n,):
        raise DimensionMismatch(
            f"regressor length {values.shape[0] if values.ndim == 1 else values.shape} != filter dim {n}"
        )
    return values


def predict_error(state: FilterState, reg, desired: float) -> float:
    """Instantaneous prediction error e(t) = desired - reg . Re(w).

    Prediction deliberately uses only the real weight parts: the signed
    fractional variant can carry imaginary mass, and keeping e(t) real keeps
    the squared-error cost well defined.  The real parts are read as a
    contiguous vector, as the batched kernel holds them: BLAS sums a
    complex state's stride-2 real view in another order, which can move
    the last bit.
    """
    psi = _psi(reg, state.dim)
    return float(desired - psi @ np.ascontiguousarray(state.w.real))


def fractional_power(
    kind: str, re: np.ndarray, guard: np.ndarray | None, exponent: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The factor of a (..., n) block of real weight rows sharing one kind and
    exponent; ``guard``, (..., 1) or (..., n), holds each row's
    ``epsilon_guard``.  A full-width guard spares np.maximum its broadcast;
    the maximum is exact, so both shapes give the same bits.  ``guard=None``
    floors nothing, which is what a zero guard gives bit for bit: |w_j| and
    ||w|| are never -0.0, and NaN stays NaN either way.  With ``out``, a
    buffer of the result's shape and dtype (complex128 for ``signed``), the
    factor is written into it and ``out`` is returned.

    * ``signed``: component-wise principal-branch power of the weights, which
      is complex wherever a weight is negative.  0**(1-v) is 0 for v < 1 and
      1 for v = 1, so the integer-order reduction is exact.
    * ``elementwise_abs``: the real max(|w_j|, guard)**(1-v) per component.
    * ``euclidean_norm``: one real max(||w||, guard)**(1-v) per row, shaped
      (..., 1) to broadcast over the row's weights.

    The exponent is one scalar for the whole block, so np.power keeps its
    scalar fast paths (sqrt for 0.5); a row's Euclidean power is a Python
    float power.
    """
    if kind == "signed":
        return np.power(re.astype(np.complex128), exponent, out)
    if kind == "elementwise_abs":
        base = np.abs(re, out)
        if guard is not None:
            np.maximum(base, guard, out=base)
        return np.power(base, exponent, base)
    base = np.sqrt(np.vecdot(re, re))
    if guard is not None:
        base = np.maximum(base, guard[..., 0])
    out = np.empty((*base.shape, 1)) if out is None else out
    out[..., 0].flat = [b**exponent for b in base.ravel().tolist()]
    return out


def fractional_factor(state: FilterState, cfg: FilterConfig) -> np.ndarray | float:
    """The factor ``cfg.factor`` puts on the gradient at ``state``: the
    :func:`fractional_power` of Re(w), or 0.0 for a variant without one."""
    if state.dim != cfg.dim:
        raise DimensionMismatch(f"state dim {state.dim} != config dim {cfg.dim}")
    if cfg.factor is None:
        return 0.0
    kind, exponent = cfg.factor
    return fractional_power(kind, state.w.real, np.array([cfg.epsilon_guard]), exponent)


def step(state: FilterState, cfg: FilterConfig, reg, desired: float) -> tuple[FilterState, StepRecord]:
    """The one update rule: w' = w + momentum (w - w_prev) + eta e psi (1 + factor).

    ``momentum`` is :attr:`FilterConfig.momentum` and ``factor`` is
    :func:`fractional_factor`; the products are component-wise.  Counts a
    ``complex_events`` step whenever the post-update weights carry any
    imaginary part; only ``flms_signed`` may produce one.
    """
    factor = fractional_factor(state, cfg)  # checks the state against cfg.dim
    psi = _psi(reg, cfg.dim)
    err = predict_error(state, psi, desired)
    w_new = state.w + cfg.momentum * (state.w - state.w_prev) + cfg.eta * err * psi * (1.0 + factor)
    imag_peak = float(np.max(np.abs(w_new.imag)))
    assert imag_peak == 0.0 or cfg.variant == "flms_signed", f"{cfg.variant} must stay real"
    new = FilterState(
        w=w_new,
        w_prev=state.w,
        iteration=state.iteration + 1,
        complex_events=state.complex_events + (1 if imag_peak > 0.0 else 0),
    )
    return new, StepRecord(error=err, imag_norm=float(np.linalg.norm(w_new.imag)))


# the names the acceptance gate steps through
momentum_lms_step = mflms_step = step
