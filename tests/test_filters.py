import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harxlab.errors import DimensionMismatch
from harxlab.filters import (
    FilterConfig,
    VARIANTS,
    FilterState,
    fractional_factor,
    fractional_power,
    initial_state,
    predict_error,
    step,
)
from harxlab.plant import HarxPlant, generate_sequence, polynomial_basis, true_weight_vector


def state_of(w, w_prev=None):
    w = np.asarray(w, dtype=np.complex128)
    return FilterState(w=w, w_prev=w.copy() if w_prev is None else np.asarray(w_prev, np.complex128))


def cfg_of(variant, dim, eta=0.1, beta=0.0, v=1.0, interp="elementwise_abs", guard=0.0):
    return FilterConfig(variant=variant, eta=eta, dim=dim, beta=beta, v=v,
                        power_interpretation=interp, epsilon_guard=guard)


# ---------------------------------------------------------------------------
# predict_error


def test_predict_error_zero_weights():
    assert predict_error(state_of([0.0, 0.0]), np.array([1.0, 2.0]), 5.0) == 5.0


def test_predict_error_perfect_model():
    w = np.array([0.3, -0.7])
    psi = np.array([1.5, 2.5])
    assert predict_error(state_of(w), psi, float(psi @ w)) == pytest.approx(0.0)


def test_predict_error_arithmetic():
    assert predict_error(state_of([1.0, 1.0]), np.array([2.0, 3.0]), 4.0) == pytest.approx(-1.0)


def test_predict_error_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        predict_error(state_of([1.0, 1.0]), np.array([2.0]), 4.0)


def test_predict_error_reads_the_real_parts_as_a_real_state():
    # the batched kernel holds a complex state's real parts as a contiguous float64 row; BLAS
    # sums the stride-2 real view of a complex vector in another order, so the error must not read it
    rng = np.random.default_rng(17)
    for _ in range(300):
        re, im, psi = rng.standard_normal((3, 9))
        d = float(rng.standard_normal())
        real = predict_error(FilterState(w=re, w_prev=re), psi, d)
        assert predict_error(state_of(re + 1j * im), psi, d) == real


# ---------------------------------------------------------------------------
# fractional_factor


def test_factor_signed_principal_branch():
    cfg = cfg_of("flms_signed", 1, v=0.5)
    factor = fractional_factor(state_of([-1.0]), cfg)
    assert factor[0].imag == pytest.approx(1.0)
    assert abs(factor[0].real) < 1e-15


def test_factor_v_one_is_all_ones():
    st_ = state_of([-2.0, 0.0, 3.0])
    for variant, interp in (("flms_signed", "elementwise_abs"),
                            ("mflms_modulus", "elementwise_abs"),
                            ("mflms_modulus", "euclidean_norm")):
        factor = fractional_factor(st_, cfg_of(variant, 3, v=1.0, interp=interp))
        np.testing.assert_allclose(np.atleast_1d(factor), 1.0)


def test_factor_modulus_elementwise():
    factor = fractional_factor(state_of([-4.0, 9.0]), cfg_of("mflms_modulus", 2, v=0.5))
    np.testing.assert_allclose(factor, [2.0, 3.0])


def test_factor_modulus_euclidean_scalar():
    factor = fractional_factor(state_of([3.0, -4.0]), cfg_of("mflms_modulus", 2, v=0.5, interp="euclidean_norm"))
    assert factor.shape == (1,)  # one scalar, broadcast over the weights
    assert factor[0] == pytest.approx(np.sqrt(5.0))


def test_factor_zero_weight_conventions():
    # 0^(1-v) = 0 for v < 1, and 1 for v = 1 (so the reduction is exact)
    assert fractional_factor(state_of([0.0]), cfg_of("flms_signed", 1, v=0.5))[0] == 0.0
    assert fractional_factor(state_of([0.0]), cfg_of("flms_signed", 1, v=1.0))[0] == 1.0
    assert fractional_factor(state_of([0.0]), cfg_of("mflms_modulus", 1, v=0.5))[0] == 0.0


def test_factor_epsilon_guard_floor():
    factor = fractional_factor(state_of([0.0, -0.001]), cfg_of("mflms_modulus", 2, v=0.5, guard=0.04))
    np.testing.assert_allclose(factor, [0.2, 0.2])


def test_factor_is_zero_without_a_fractional_term():
    for variant in ("lms", "momentum_lms"):
        assert fractional_factor(state_of([1.0]), cfg_of(variant, 1, v=0.5)) == 0.0


# (L, n) rows holding NaN, +-inf, signed zeros, negatives, values below the guard and large values
HARD_ROWS = np.array([
    [np.nan, 1.0, -2.0],
    [np.inf, -np.inf, 0.5],
    [0.0, -0.0, 0.0],
    [-3.0, 0.01, -0.001],
    [1e300, -1e200, 1e-300],
    [4.0, 9.0, 16.0],
])


@pytest.mark.parametrize("kind", ["signed", "elementwise_abs", "euclidean_norm"])
@pytest.mark.parametrize("exponent", [0.5, 0.25, 0.0])
def test_power_into_out_equals_the_allocating_call(kind, exponent):
    L, n = HARD_ROWS.shape
    shape = (L, 1 if kind == "euclidean_norm" else n)
    zero, positive = np.zeros((L, n)), np.full((L, n), 0.05)
    with np.errstate(all="ignore"):
        for guard in (zero, positive, None):
            want = fractional_power(kind, HARD_ROWS, guard, exponent)
            buf = np.empty(shape, np.complex128 if kind == "signed" else np.float64)
            got = fractional_power(kind, HARD_ROWS, guard, exponent, out=buf)
            assert got is buf and got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        unguarded = fractional_power(kind, HARD_ROWS, None, exponent)
        # no guard is a zero guard, bit for bit, NaN and the signs of zeros included
        assert unguarded.tobytes() == fractional_power(kind, HARD_ROWS, zero, exponent).tobytes()
        floored = fractional_power(kind, HARD_ROWS, positive, exponent)
        base = np.abs(HARD_ROWS) if kind != "euclidean_norm" else np.sqrt(np.vecdot(HARD_ROWS, HARD_ROWS))[:, None]
    if kind == "signed":  # the signed factor reads no guard
        assert floored.tobytes() == unguarded.tobytes()
        return
    below = base < 0.05  # NaN is below nothing, and stays NaN under either guard
    np.testing.assert_array_equal(floored[below], 0.05**exponent)
    assert floored[~below].tobytes() == unguarded[~below].tobytes()
    assert below.any() and (~below).any()


# ---------------------------------------------------------------------------
# lms / momentum


def test_lms_one_step_by_hand():
    new, rec = step(state_of([0.0, 0.0]), cfg_of("lms", 2, eta=0.5), np.array([1.0, 1.0]), 1.0)
    np.testing.assert_allclose(new.w.real, [0.5, 0.5])
    assert rec.error == 1.0 and rec.imag_norm == 0.0


def test_lms_fixed_point_on_zero_error():
    w = np.array([0.4, -0.2])
    psi = np.array([1.0, 2.0])
    new, rec = step(state_of(w), cfg_of("lms", 2, eta=0.3), psi, float(psi @ w))
    np.testing.assert_allclose(new.w.real, w)
    assert rec.error == pytest.approx(0.0)


def test_lms_degenerate_zero_step():
    new, _ = step(state_of([0.4, -0.2]), cfg_of("lms", 2, eta=0.0), np.array([1.0, 2.0]), 7.0)
    np.testing.assert_array_equal(new.w.real, [0.4, -0.2])


def test_momentum_reduces_to_lms_at_beta_zero():
    st_ = state_of([0.3, 0.1], w_prev=[0.0, 0.0])
    psi = np.array([1.0, -2.0])
    a, _ = step(st_, cfg_of("momentum_lms", 2, eta=0.25, beta=0.0), psi, 1.5)
    b, _ = step(st_, cfg_of("lms", 2, eta=0.25), psi, 1.5)
    np.testing.assert_array_equal(a.w, b.w)


def test_momentum_pure_momentum_step():
    st_ = state_of([1.0], w_prev=[0.0])
    psi = np.array([1.0])
    new, _ = step(st_, cfg_of("momentum_lms", 1, eta=0.5, beta=0.5), psi, 1.0)
    np.testing.assert_allclose(new.w.real, [1.5])


def test_momentum_fixed_point():
    st_ = state_of([0.5], w_prev=[0.5])
    new, _ = step(st_, cfg_of("momentum_lms", 1, eta=0.5, beta=0.3), np.array([2.0]), 1.0)
    np.testing.assert_allclose(new.w.real, [0.5])


@settings(max_examples=50, deadline=None)
@given(
    w=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    wp=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    psi=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    d=st.floats(-3, 3),
    eta=st.floats(0.001, 0.9),
)
def test_momentum_beta_zero_identity_property(w, wp, psi, d, eta):
    st_ = state_of(w, w_prev=wp)
    a, _ = step(st_, cfg_of("momentum_lms", 2, eta=eta, beta=0.0), np.array(psi), d)
    b, _ = step(st_, cfg_of("lms", 2, eta=eta), np.array(psi), d)
    np.testing.assert_array_equal(a.w, b.w)


# ---------------------------------------------------------------------------
# mflms


def test_mflms_v1_is_momentum_with_doubled_step():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        st_ = state_of(rng.normal(size=n), w_prev=rng.normal(size=n))
        psi = rng.normal(size=n)
        d = float(rng.normal())
        eta = float(rng.uniform(0.01, 0.5))
        beta = float(rng.uniform(0.0, 0.9))
        for interp in ("elementwise_abs", "euclidean_norm"):
            a, _ = step(st_, cfg_of("mflms_modulus", n, eta=eta, beta=beta, v=1.0, interp=interp), psi, d)
            b, _ = step(st_, cfg_of("momentum_lms", n, eta=2 * eta, beta=beta), psi, d)
            assert np.max(np.abs(a.w - b.w)) <= 1e-12


def test_mflms_zero_weights_equal_momentum_step():
    st_ = state_of([0.0, 0.0])
    psi = np.array([1.0, -1.0])
    a, _ = step(st_, cfg_of("mflms_modulus", 2, eta=0.2, beta=0.4, v=0.5), psi, 2.0)
    b, _ = step(st_, cfg_of("momentum_lms", 2, eta=0.2, beta=0.4), psi, 2.0)
    np.testing.assert_array_equal(a.w, b.w)


def test_mflms_stays_real_and_converges_on_muscle_structure():
    # sanity envelope at an empirically stable step size: finite terminal
    # error below the initial one after 5000 iterations
    plant = HarxPlant(m=3, basis=polynomial_basis(3), q=np.array([0.6, 0.3, 0.1]),
                      c=np.array([1.0, 0.5, 0.25]), noise_std=0.01, seed=7)
    cfg = cfg_of("mflms_modulus", plant.n, eta=0.002, beta=0.2, v=0.9)
    data = generate_sequence(plant, T=5000, rng=np.random.default_rng(0))
    w_true = true_weight_vector(plant)
    state = initial_state(cfg)
    initial_err = float(np.linalg.norm(state.w.real - w_true))
    for psi, desired in zip(data.X, data.outputs):
        state, rec = step(state, cfg, psi, float(desired))
        assert rec.imag_norm == 0.0
    final_err = float(np.linalg.norm(state.w.real - w_true))
    assert np.isfinite(final_err)
    assert final_err < initial_err


# ---------------------------------------------------------------------------
# flms_signed


def test_flms_positive_weights_stay_real():
    st_ = state_of([0.5, 1.5])
    new, rec = step(st_, cfg_of("flms_signed", 2, eta=0.1, v=0.5), np.array([1.0, 1.0]), 1.0)
    assert rec.imag_norm == 0.0
    assert new.complex_events == 0


def test_flms_negative_weight_leaks_imaginary():
    st_ = state_of([-0.5, 1.5])
    new, rec = step(st_, cfg_of("flms_signed", 2, eta=0.1, v=0.5), np.array([1.0, 1.0]), 2.0)
    assert rec.imag_norm > 0.0
    assert new.complex_events == 1


def test_flms_monte_carlo_all_seeds_leak():
    # a plant with a negative true weight drags a weight negative in every run;
    # complex_events never decreases, so a run stops stepping at its first leak
    plant = HarxPlant(m=1, basis=polynomial_basis(2), q=np.array([1.0]),
                      c=np.array([1.0, -1.0]), noise_std=0.01, seed=0)
    cfg = cfg_of("flms_signed", 2, eta=0.01, beta=0.2, v=0.5)
    for seed in range(100):
        data = generate_sequence(plant, T=2001, rng=np.random.default_rng(seed))
        state = initial_state(cfg)
        for psi, desired in zip(data.X, data.outputs):
            state, _ = step(state, cfg, psi, float(desired))
            if state.complex_events:
                break
        assert state.complex_events > 0


# ---------------------------------------------------------------------------
# the shared update rule against the per-variant formulas it replaced


def reference_factor(state, cfg):
    """Each fractional variant's factor, written out on its own: it shares no
    code with :func:`fractional_factor`.  The Euclidean norm is the same sum
    of squares as the batched kernel's, so the comparison can stay exact."""
    re, exponent = state.w.real, 1.0 - cfg.v
    if cfg.variant == "flms_signed":
        return np.power(re.astype(np.complex128), exponent)
    if cfg.power_interpretation == "elementwise_abs":
        return np.power(np.maximum(np.abs(re), cfg.epsilon_guard), exponent)
    return max(float(np.sqrt(np.vecdot(re, re))), cfg.epsilon_guard) ** exponent


def reference_update(state, cfg, psi, d):
    """The four per-variant update formulas and the signed variant's leak
    bookkeeping as they were written before the variants shared one rule;
    returns (w, w_prev, complex_events, error)."""
    err = predict_error(state, psi, d)
    events = state.complex_events
    if cfg.variant == "lms":
        w_new = state.w + cfg.eta * err * psi
    elif cfg.variant == "momentum_lms":
        w_new = state.w + cfg.beta * (state.w - state.w_prev) + cfg.eta * err * psi
    else:
        factor = reference_factor(state, cfg)
        w_new = state.w + cfg.beta * (state.w - state.w_prev) + cfg.eta * err * psi * (1.0 + factor)
    if cfg.variant == "flms_signed":
        imag_peak = float(np.max(np.abs(w_new.imag)))
        events = state.complex_events + (1 if imag_peak > 0.0 else 0)
    else:
        assert not w_new.imag.any()
    return w_new, state.w, events, err


finite = st.floats(-3, 3)


@settings(max_examples=300, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    n=st.integers(1, 4),
    data=st.data(),
    eta=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 0.99),
    v=st.floats(0.01, 1.0),
    interp=st.sampled_from(["elementwise_abs", "euclidean_norm"]),
    guard=st.floats(0.0, 0.5),
    events=st.integers(0, 5),
)
def test_named_steps_match_per_variant_formulas(variant, n, data, eta, beta, v, interp, guard, events):
    # lms configs carry beta != 0 too: lms must ignore it
    vec = st.lists(finite, min_size=n, max_size=n)
    w = np.array(data.draw(vec), dtype=np.complex128)
    w_prev = np.array(data.draw(vec), dtype=np.complex128)
    if variant == "flms_signed":  # only the signed variant may already carry imaginary mass
        w = w + 1j * np.array(data.draw(vec))
        w_prev = w_prev + 1j * np.array(data.draw(vec))
    psi = np.array(data.draw(vec))
    d = data.draw(finite)
    state = FilterState(w=w, w_prev=w_prev, iteration=7, complex_events=events)
    cfg = cfg_of(variant, n, eta=eta, beta=beta, v=v, interp=interp, guard=guard)

    new, rec = step(state, cfg, psi, d)
    w_ref, w_prev_ref, events_ref, err_ref = reference_update(state, cfg, psi, d)
    np.testing.assert_array_equal(new.w, w_ref)
    np.testing.assert_array_equal(new.w_prev, w_prev_ref)
    np.testing.assert_array_equal(new.complex_events, events_ref)
    assert new.iteration == 8
    assert rec.error == err_ref
    assert rec.imag_norm == float(np.linalg.norm(w_ref.imag))


# ---------------------------------------------------------------------------
# shared mechanics


def test_step_by_hand_and_dimension_guard():
    st_ = state_of([0.0])
    psi = np.array([1.0])
    new, _ = step(st_, cfg_of("lms", 1, eta=0.5), psi, 1.0)
    np.testing.assert_allclose(new.w.real, [0.5])
    with pytest.raises(DimensionMismatch):
        step(st_, cfg_of("lms", 1, eta=0.5), np.array([1.0, 2.0]), 1.0)
    with pytest.raises(DimensionMismatch, match="state dim 1 != config dim 2"):
        step(st_, cfg_of("lms", 2, eta=0.5), np.array([1.0, 2.0]), 1.0)


def test_iteration_and_counters_monotone():
    plant = HarxPlant(m=1, basis=polynomial_basis(2), q=np.array([1.0]),
                      c=np.array([1.0, -1.0]), noise_std=0.0, seed=1)
    cfg = cfg_of("flms_signed", 2, eta=0.05, v=0.5)
    data = generate_sequence(plant, T=100, rng=np.random.default_rng(3))
    state = initial_state(cfg)
    prev_events = 0
    for i, (psi, desired) in enumerate(zip(data.X, data.outputs)):
        state, _ = step(state, cfg, psi, float(desired))
        assert state.iteration == i + 1
        assert state.complex_events >= prev_events
        prev_events = state.complex_events


def test_step_purity_replay():
    # replaying a recorded sequence from the same start reproduces identical
    # states; the original inputs are never mutated
    rng = np.random.default_rng(11)
    seq = [(rng.normal(size=3), float(rng.normal())) for _ in range(50)]
    cfg = cfg_of("mflms_modulus", 3, eta=0.05, beta=0.3, v=0.7)

    def run():
        state = initial_state(cfg)
        trace = []
        for psi, d in seq:
            state, rec = step(state, cfg, psi, d)
            trace.append((state.w.copy(), rec.error))
        return trace

    first, second = run(), run()
    for (wa, ea), (wb, eb) in zip(first, second):
        np.testing.assert_array_equal(wa, wb)
        assert ea == eb


def test_initial_state_kinds():
    cfg = cfg_of("lms", 3)
    z = initial_state(cfg)
    np.testing.assert_array_equal(z.w, np.zeros(3))
    np.testing.assert_array_equal(z.w_prev, np.zeros(3))


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_of("lms", 2, eta=-0.1)
    with pytest.raises(ValueError):
        cfg_of("momentum_lms", 2, beta=1.0)
    with pytest.raises(ValueError):
        cfg_of("mflms_modulus", 2, v=0.0)
    with pytest.raises(ValueError):
        cfg_of("mflms_modulus", 2, v=1.2)
    with pytest.raises(ValueError):
        FilterConfig(variant="nlms", eta=0.1, dim=2)
    with pytest.raises(ValueError):
        cfg_of("mflms_modulus", 2, interp="bogus")
    with pytest.raises(ValueError, match="dim must be >= 1"):
        cfg_of("lms", 0)
    with pytest.raises(DimensionMismatch, match="equal-length vectors"):
        FilterState(w=np.zeros(2), w_prev=np.zeros(3))
