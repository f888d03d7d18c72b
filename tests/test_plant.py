import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harxlab.errors import BadLength, DimensionMismatch, ScenarioError
from harxlab.plant import (
    HarxPlant,
    generate_sequence,
    muscle_preset,
    parse_scenario,
    polynomial_basis,
    true_weight_vector,
)


def build_regressor(history, t, basis, m):
    """Oracle for one row of ``generate_sequence``'s X: the basis evaluated on
    r(t-1), ..., r(t-m) taken from ``history`` (``history[j]`` is r(j)), one
    block per delay, so element (i-1)*l + (k-1) is f_k(r(t-i))."""
    history = np.asarray(history, dtype=np.float64)
    if t < m or t > len(history):
        raise ValueError(
            f"regressor at t={t} needs samples r(t-1)..r(t-{m}), "
            f"but history covers r(0)..r({len(history) - 1})"
        )
    row = []
    for i in range(1, m + 1):
        x = power = float(history[t - i])  # the chain x, x*x, (x*x)*x, ...
        row.append(power)
        for _ in range(1, basis.l):
            power *= x
            row.append(power)
    return np.array(row)


def make_plant(m, l, q, c, noise_std=0.0, seed=0):
    return HarxPlant(m=m, basis=polynomial_basis(l), q=np.asarray(q, float), c=np.asarray(c, float),
                     noise_std=noise_std, seed=seed)


# ---------------------------------------------------------------------------
# true_weight_vector


def test_true_weights_identity_case():
    np.testing.assert_array_equal(true_weight_vector(make_plant(1, 2, [1.0], [1.0, 1.0])), [1.0, 1.0])


def test_true_weights_direct_substitution():
    np.testing.assert_array_equal(
        true_weight_vector(make_plant(2, 2, [2.0, 3.0], [1.0, -1.0])), [2.0, -2.0, 3.0, -3.0]
    )


def test_true_weights_scalar_product():
    np.testing.assert_array_equal(true_weight_vector(make_plant(1, 1, [0.5], [4.0])), [2.0])


@pytest.mark.parametrize("alpha", [2.0, -1.0, 0.5])
def test_scaling_ambiguity(alpha):
    base = make_plant(2, 3, [0.4, -0.7], [1.0, 0.5, 0.25])
    scaled = make_plant(2, 3, alpha * base.q, base.c / alpha)
    np.testing.assert_allclose(true_weight_vector(scaled), true_weight_vector(base), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# build_regressor


def test_build_regressor_direct_substitution():
    # r(t-1)=2, r(t-2)=3 with monomials r, r^2
    reg = build_regressor([3.0, 2.0], t=2, basis=polynomial_basis(2), m=2)
    np.testing.assert_array_equal(reg, [2.0, 4.0, 3.0, 9.0])


def test_build_regressor_powers_of_one():
    reg = build_regressor([1.0], t=1, basis=polynomial_basis(3), m=1)
    np.testing.assert_array_equal(reg, [1.0, 1.0, 1.0])


def test_build_regressor_zero_input():
    reg = build_regressor([0.0], t=1, basis=polynomial_basis(2), m=1)
    np.testing.assert_array_equal(reg, [0.0, 0.0])


def test_build_regressor_insufficient_history():
    with pytest.raises(ValueError, match="needs samples"):
        build_regressor([1.0, 2.0], t=1, basis=polynomial_basis(2), m=2)
    with pytest.raises(ValueError, match="needs samples"):
        build_regressor([1.0, 2.0], t=3, basis=polynomial_basis(2), m=2)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    l=st.integers(1, 4),
    history=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=8),
)
def test_regressor_layout_roundtrip(m, l, history):
    # element (i-1)*l + (k-1) must equal f_k(r(t-i))
    t = len(history)
    basis = polynomial_basis(l)
    reg = build_regressor(history, t=t, basis=basis, m=m)
    assert reg.shape == (m * l,)
    for i in range(1, m + 1):
        for k in range(1, l + 1):
            assert reg[(i - 1) * l + (k - 1)] == pytest.approx(history[t - i] ** k)


# ---------------------------------------------------------------------------
# BasisSet.evaluate_many


@settings(max_examples=60, deadline=None)
@given(
    l=st.integers(1, 8),
    samples=st.lists(
        st.floats(-1e30, 1e30).filter(lambda x: x == 0.0 or abs(x) >= 1e-30), min_size=1, max_size=20
    ),
)
def test_basis_within_l_ulps_of_libm_pow(l, samples):
    # k - 1 correctly rounded products against libm's pow: each power of a
    # normal-range sample stays normal, so the relative gap is at most l * 2**-52
    F = polynomial_basis(l).evaluate_many(np.array(samples))
    for row, x in zip(F, samples):
        for k in range(1, l + 1):
            assert abs(row[k - 1] - x**k) <= l * 2.0**-52 * abs(x**k)


@pytest.mark.parametrize("build,match", [
    (lambda: polynomial_basis(0), "l must be >= 1"),
    (lambda: make_plant(0, 1, [], [1.0]), "m must be >= 1"),
    (lambda: make_plant(2, 1, [1.0], [1.0]), "q must have length m=2, got 1"),
    (lambda: make_plant(1, 2, [1.0], [1.0, 2.0, 3.0]), "c must have length l=2, got 3"),
], ids=["l", "m", "q", "c"])
def test_plant_rejects_bad_orders_and_lengths(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_basis_shapes():
    r = np.array([0.5, -2.0, 3.25])
    np.testing.assert_array_equal(polynomial_basis(1).evaluate_many(r), r[:, None])  # order 1 is r itself
    assert polynomial_basis(4).evaluate_many(np.empty(0)).shape == (0, 4)


def test_basis_signs_and_zeros():
    F = polynomial_basis(5).evaluate_many(np.array([-2.0, 0.0, -0.5]))
    np.testing.assert_array_equal(F[0], [-2.0, 4.0, -8.0, 16.0, -32.0])  # odd powers keep the sign
    assert np.all(F[1] == 0.0)
    np.testing.assert_array_equal(np.sign(F[2]), [-1.0, 1.0, -1.0, 1.0, -1.0])


# ---------------------------------------------------------------------------
# generate_sequence


def test_generate_sequence_bad_length():
    plant = make_plant(2, 2, [1.0, 0.5], [1.0, 0.2])
    with pytest.raises(BadLength):
        generate_sequence(plant, T=2)


def test_generate_sequence_alignment_and_truth():
    plant = make_plant(2, 2, [1.0, 0.5], [1.0, 0.2], seed=5)
    data = generate_sequence(plant, T=40)
    assert len(data) == 38
    assert len(data.inputs) == 40
    w = true_weight_vector(plant)
    assert data.X.shape == (38, plant.n)
    assert not data.X.flags.writeable
    # noise-free outputs match the inner product row by row
    for row, out in zip(data.X, data.outputs):
        assert out == pytest.approx(float(row @ w))
    # row k is the regressor at time m + k
    for k in (0, 37):
        reg = build_regressor(data.inputs, t=plant.m + k, basis=plant.basis, m=plant.m)
        np.testing.assert_array_equal(data.X[k], reg)


def test_generate_sequence_least_squares_recovery():
    # least-squares oracle: noise-free data pins down the true weights
    plant = make_plant(3, 3, [0.6, 0.3, 0.1], [1.0, 0.5, 0.25], seed=11)
    data = generate_sequence(plant, T=1000)
    w_hat, *_ = np.linalg.lstsq(data.X, data.outputs, rcond=None)
    w = true_weight_vector(plant)
    assert np.linalg.norm(w_hat - w) / np.linalg.norm(w) <= 1e-8


def test_generate_sequence_identifiability_at_10nl_samples():
    plant = make_plant(2, 3, [0.9, -0.4], [1.0, -0.3, 0.1], seed=2)
    T = 10 * plant.n + plant.m
    data = generate_sequence(plant, T=T)
    w_hat, *_ = np.linalg.lstsq(data.X, data.outputs, rcond=None)
    w = true_weight_vector(plant)
    assert np.linalg.norm(w_hat - w) / np.linalg.norm(w) <= 1e-8


def test_generate_sequence_deterministic():
    plant = make_plant(2, 2, [1.0, 0.5], [1.0, 0.2], noise_std=0.3, seed=9)
    a = generate_sequence(plant, T=100)
    b = generate_sequence(plant, T=100)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.outputs, b.outputs)
    np.testing.assert_array_equal(a.X, b.X)


def test_generate_sequence_fills_a_callers_buffer():
    plant = make_plant(3, 3, [0.6, -0.3, 0.1], [1.0, 0.5, -0.25], noise_std=0.3, seed=4)
    fresh = generate_sequence(plant, T=500, rng=np.random.default_rng(8))
    # the delay blocks are the basis of the whole input, shifted by one sample per delay
    F = plant.basis.evaluate_many(fresh.inputs)
    blocks = np.concatenate([F[plant.m - i : 500 - i] for i in range(1, plant.m + 1)], axis=1)
    assert fresh.X.tobytes() == blocks.tobytes()
    buffer = np.full((2, 500 - plant.m, plant.n), np.nan)
    data = generate_sequence(plant, T=500, rng=np.random.default_rng(8), out=buffer[1])
    for field in ("inputs", "X", "outputs"):
        assert getattr(data, field).tobytes() == getattr(fresh, field).tobytes()
    assert np.shares_memory(data.X, buffer) and not data.X.flags.writeable and buffer.flags.writeable
    assert np.isnan(buffer[0]).all()
    bad = (np.empty((497, plant.n + 1)), np.empty((496, plant.n)), np.empty((497, plant.n), dtype=np.float32),
           np.empty((plant.n, 497)).T)
    for out in bad:
        with pytest.raises(DimensionMismatch, match="C-contiguous float64"):
            generate_sequence(plant, T=500, out=out)


def test_generate_sequence_custom_samples_and_uniform():
    # explicit samples are not an input kind: only the two random streams are
    plant = make_plant(1, 2, [1.0], [1.0, -1.0])
    with pytest.raises(ValueError, match="input_kind must be one of"):
        generate_sequence(plant, input_kind="custom", T=4)
    uni = generate_sequence(plant, input_kind="uniform", T=50, rng=np.random.default_rng(1))
    assert np.all(np.abs(uni.inputs) <= 1.0)


# ---------------------------------------------------------------------------
# scenario


def test_muscle_preset_values():
    plant = muscle_preset()
    assert (plant.m, plant.basis.l, plant.n) == (3, 3, 9)
    np.testing.assert_allclose(plant.q, [0.6, 0.3, 0.1])
    np.testing.assert_allclose(plant.c, [1.0, 0.5, 0.25])
    assert plant.noise_std == 0.01


def test_scenario_roundtrip_and_errors():
    text = "m = 2\nl = 2\nbasis = polynomial\nq = 1.0, -0.5\nc = 1.0, 0.25\nnoise_std = 0.05\nseed = 3\n"
    plant = parse_scenario(text)
    assert plant.m == 2 and plant.basis.l == 2 and plant.seed == 3
    np.testing.assert_allclose(plant.q, [1.0, -0.5])

    with pytest.raises(ScenarioError, match="missing required key"):
        parse_scenario("m = 2\n")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("m = 2\nl = 2\nbasis = polynomial\nq = nope\nc = 1.0, 0.5\n")
    assert exc.value.line == 4
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(text + "bogus = 1\n")
    with pytest.raises(ScenarioError, match="polynomial"):
        parse_scenario("m = 1\nl = 1\nbasis = fourier\nq = 1\nc = 1\n")

