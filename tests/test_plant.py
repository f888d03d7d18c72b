import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harxlab.errors import BadLength, DimensionMismatch, InsufficientHistory, ScenarioError
from harxlab.plant import (
    BasisSet,
    HarxPlant,
    Regressor,
    build_regressor,
    dataset_to_csv,
    generate_sequence,
    muscle_preset,
    parse_scenario,
    plant_output,
    polynomial_basis,
    true_weight_vector,
)


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
    np.testing.assert_array_equal(reg.values, [2.0, 4.0, 3.0, 9.0])


def test_build_regressor_powers_of_one():
    reg = build_regressor([1.0], t=1, basis=polynomial_basis(3), m=1)
    np.testing.assert_array_equal(reg.values, [1.0, 1.0, 1.0])


def test_build_regressor_zero_input():
    reg = build_regressor([0.0], t=1, basis=polynomial_basis(2), m=1)
    np.testing.assert_array_equal(reg.values, [0.0, 0.0])


def test_build_regressor_insufficient_history():
    with pytest.raises(InsufficientHistory):
        build_regressor([1.0, 2.0], t=1, basis=polynomial_basis(2), m=2)
    with pytest.raises(InsufficientHistory):
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
    assert reg.values.shape == (m * l,)
    for i in range(1, m + 1):
        for k in range(1, l + 1):
            assert reg.values[(i - 1) * l + (k - 1)] == pytest.approx(history[t - i] ** k)


# ---------------------------------------------------------------------------
# plant_output


def test_plant_output_dot_product():
    plant = make_plant(2, 2, [2.0, 3.0], [1.0, -1.0])
    reg = Regressor(values=np.array([2.0, 4.0, 3.0, 9.0]), time_index=2)
    assert plant_output(plant, reg) == pytest.approx(-22.0)


def test_plant_output_zero_regressor():
    plant = make_plant(2, 2, [2.0, 3.0], [1.0, -1.0])
    assert plant_output(plant, np.zeros(4)) == 0.0


def test_plant_output_dimension_mismatch():
    plant = make_plant(2, 2, [2.0, 3.0], [1.0, -1.0])
    with pytest.raises(DimensionMismatch):
        plant_output(plant, np.zeros(3))


def test_plant_output_noise_tail_monte_carlo():
    # with sigma=0.1, |eps| < 1 is a 10-sigma event: expect >= 99.99% of seeds inside
    plant = make_plant(2, 2, [2.0, 3.0], [1.0, -1.0], noise_std=0.1)
    reg = np.array([2.0, 4.0, 3.0, 9.0])
    inside = 0
    trials = 10**5
    for seed in range(trials):
        eps = plant_output(plant, reg, rng=np.random.default_rng(seed)) - (-22.0)
        inside += abs(eps) < 1.0
    assert inside / trials >= 0.9999


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
        np.testing.assert_array_equal(data.X[k], reg.values)


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
    assert dataset_to_csv(a) == dataset_to_csv(b)


def test_generate_sequence_custom_samples_and_uniform():
    plant = make_plant(1, 2, [1.0], [1.0, -1.0])
    samples = [0.1, 0.2, 0.3, 0.4]
    data = generate_sequence(plant, input_kind="custom", samples=samples)
    np.testing.assert_array_equal(data.inputs, samples)
    uni = generate_sequence(plant, input_kind="uniform", T=50, rng=np.random.default_rng(1))
    assert np.all(np.abs(uni.inputs) <= 1.0)


# ---------------------------------------------------------------------------
# basis / scenario / csv


def test_custom_basis_evaluate():
    basis = BasisSet(functions=(np.tanh, lambda r: r * r), kind="custom")
    np.testing.assert_allclose(basis.evaluate(0.5), [np.tanh(0.5), 0.25])
    out = basis.evaluate_many(np.array([0.5, -1.0]))
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out[1], [np.tanh(-1.0), 1.0])


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


def test_dataset_csv_shape():
    plant = make_plant(2, 2, [1.0, 0.5], [1.0, 0.2], seed=4)
    data = generate_sequence(plant, T=10)
    lines = dataset_to_csv(data).splitlines()
    assert lines[0] == "t,input,output"
    assert len(lines) == 11
    # the first m rows predate the first regressor
    assert lines[1].endswith(",") and lines[2].endswith(",")
    assert not lines[3].endswith(",")
    assert all(line.count(",") == 2 for line in lines[1:])
