"""Adaptive update rules for the LMS family.

Four variants share one state shape:

* ``lms`` — plain stochastic gradient on the squared prediction error,
* ``momentum_lms`` — adds the heavy-ball term beta * (w - w_prev),
* ``flms_signed`` — scales the gradient term by component-wise signed
  fractional powers of the weights, taken on the principal complex branch, so
  any negative weight component leaks imaginary mass into the state,
* ``mflms_modulus`` — the modulus-guarded momentum-fractional variant, which
  stays real by construction under either reading of the magnitude factor
  (component-wise absolute values, or one Euclidean-norm scalar).

Every step is a pure transition ``(state, config, regressor, desired) ->
(new_state, record)``: inputs are never mutated, so a recorded sequence
replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedVariant

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


@dataclass(frozen=True)
class FilterState:
    """Current and previous weights plus complex-leak bookkeeping.

    Weights are stored complex so the signed fractional variant can
    accumulate imaginary parts; the real-only variants keep every imaginary
    component at exactly zero.  ``complex_events`` counts steps whose
    post-update weights carry any imaginary part, ``max_imag`` is the largest
    imaginary magnitude seen so far.  The state owns its arrays and freezes
    them.
    """

    w: np.ndarray
    w_prev: np.ndarray
    iteration: int = 0
    complex_events: int = 0
    max_imag: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.complex128)
        w_prev = np.asarray(self.w_prev, dtype=np.complex128)
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
    w = np.zeros(cfg.dim, dtype=np.complex128)
    return FilterState(w=w, w_prev=w.copy())


def _psi(reg, n: int) -> np.ndarray:
    values = np.asarray(reg, dtype=np.float64)
    if values.shape != (n,):
        raise DimensionMismatch(
            f"regressor length {values.shape[0] if values.ndim == 1 else values.shape} != filter dim {n}"
        )
    return values


def _check_dims(state: FilterState, cfg: FilterConfig) -> None:
    if state.dim != cfg.dim:
        raise DimensionMismatch(f"state dim {state.dim} != config dim {cfg.dim}")


def _require(cfg: FilterConfig, variant: str) -> None:
    if cfg.variant != variant:
        raise UnsupportedVariant(f"step requires variant {variant!r}, got {cfg.variant!r}")


def predict_error(state: FilterState, reg, desired: float) -> float:
    """Instantaneous prediction error e(t) = desired - reg . Re(w).

    Prediction deliberately uses only the real weight parts: the signed
    fractional variant can carry imaginary mass, and keeping e(t) real keeps
    the squared-error cost well defined.
    """
    psi = _psi(reg, state.dim)
    return float(desired - psi @ state.w.real)


def fractional_factor(state: FilterState, cfg: FilterConfig) -> np.ndarray | float:
    """The (1 - v)-power factor the fractional variants put on the gradient.

    * ``flms_signed``: component-wise principal-branch power of Re(w), which
      is complex wherever the weight is negative.  0**(1-v) is 0 for v < 1
      and 1 for v = 1, so the integer-order reduction is exact.
    * ``mflms_modulus`` + ``elementwise_abs``: the real vector
      max(|Re(w_j)|, epsilon_guard)**(1-v).
    * ``mflms_modulus`` + ``euclidean_norm``: the single real scalar
      max(||Re(w)||, epsilon_guard)**(1-v).
    """
    if cfg.variant not in ("flms_signed", "mflms_modulus"):
        raise UnsupportedVariant(f"fractional factor undefined for variant {cfg.variant!r}")
    _check_dims(state, cfg)
    exponent = 1.0 - cfg.v
    re = state.w.real
    if cfg.variant == "flms_signed":
        return np.power(re.astype(np.complex128), exponent)
    if cfg.power_interpretation == "elementwise_abs":
        return np.power(np.maximum(np.abs(re), cfg.epsilon_guard), exponent)
    return float(max(float(np.linalg.norm(re)), cfg.epsilon_guard) ** exponent)


def _update(
    state: FilterState, cfg: FilterConfig, reg, desired: float, beta: float, factor: np.ndarray | float = 0.0
) -> tuple[FilterState, StepRecord]:
    """The one update rule: w' = w + beta (w - w_prev) + eta e psi (1 + factor).

    Updates ``complex_events`` and ``max_imag`` whenever the post-update
    weights carry any imaginary part; only ``flms_signed`` may produce one.
    """
    _check_dims(state, cfg)
    psi = _psi(reg, cfg.dim)
    err = predict_error(state, psi, desired)
    w_new = state.w + beta * (state.w - state.w_prev) + cfg.eta * err * psi * (1.0 + factor)
    imag_peak = float(np.max(np.abs(w_new.imag)))
    assert imag_peak == 0.0 or cfg.variant == "flms_signed", f"{cfg.variant} must stay real"
    new = FilterState(
        w=w_new,
        w_prev=state.w,
        iteration=state.iteration + 1,
        complex_events=state.complex_events + (1 if imag_peak > 0.0 else 0),
        max_imag=max(state.max_imag, imag_peak),
    )
    return new, StepRecord(error=err, imag_norm=float(np.linalg.norm(w_new.imag)))


def lms_step(state: FilterState, cfg: FilterConfig, reg, desired: float) -> tuple[FilterState, StepRecord]:
    """w' = w + eta * e * psi; ``cfg.beta`` is ignored."""
    _require(cfg, "lms")
    return _update(state, cfg, reg, desired, beta=0.0)


def momentum_lms_step(state: FilterState, cfg: FilterConfig, reg, desired: float) -> tuple[FilterState, StepRecord]:
    """w' = w + beta * (w - w_prev) + eta * e * psi."""
    _require(cfg, "momentum_lms")
    return _update(state, cfg, reg, desired, beta=cfg.beta)


def mflms_step(state: FilterState, cfg: FilterConfig, reg, desired: float) -> tuple[FilterState, StepRecord]:
    """Modulus-guarded momentum-fractional update.

    elementwise_abs::

        w'_j = w_j + beta (w_j - w_prev_j) + eta e psi_j (1 + |w_j|^(1-v))

    euclidean_norm::

        w' = w + beta (w - w_prev) + eta e psi (1 + ||w||^(1-v))

    With v = 1 the factor is identically 2, i.e. momentum LMS at twice the
    step size.  Weights stay real by construction.
    """
    _require(cfg, "mflms_modulus")
    return _update(state, cfg, reg, desired, beta=cfg.beta, factor=fractional_factor(state, cfg))


def flms_signed_step(state: FilterState, cfg: FilterConfig, reg, desired: float) -> tuple[FilterState, StepRecord]:
    """Signed fractional update with principal-branch component powers.

    w' = w + beta (w - w_prev) + eta e psi (.) (1 + Re(w)^(1-v)), where (.) is
    the component-wise product and the power follows the principal complex
    branch.  Negative weight components therefore leak imaginary mass into
    the state; ``complex_events`` and ``max_imag`` are updated whenever the
    post-update weights carry any imaginary part.
    """
    _require(cfg, "flms_signed")
    return _update(state, cfg, reg, desired, beta=cfg.beta, factor=fractional_factor(state, cfg))


_STEPS = {
    "lms": lms_step,
    "momentum_lms": momentum_lms_step,
    "mflms_modulus": mflms_step,
    "flms_signed": flms_signed_step,
}


def step(state: FilterState, cfg: FilterConfig, reg, desired: float) -> tuple[FilterState, StepRecord]:
    """Dispatch to the configured variant's update rule."""
    return _STEPS[cfg.variant](state, cfg, reg, desired)
