import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from harxlab.analysis import (
    RunRecord,
    binomial_report,
    binomial_residual,
    binomial_vector_verdict,
    estimate_correlations,
    run_experiment,
    run_record_csv,
    run_summary,
    simulate_seeds,
    stability_probe,
    sweep_cells,
    wiener_solution,
)
from harxlab.errors import DomainError, EmptyDataset, SingularCorrelation
from harxlab.filters import FilterConfig, initial_state
from harxlab.plant import Dataset, HarxPlant, generate_sequence, muscle_preset, polynomial_basis, true_weight_vector


def synthetic_dataset(X, outputs):
    X = np.asarray(X, dtype=np.float64)
    return Dataset(inputs=np.zeros(X.shape[0]), X=X, outputs=np.asarray(outputs, float),
                   plant_truth=np.zeros(X.shape[1]))


def muscle_structure(noise_std=0.01, seed=7):
    return HarxPlant(m=3, basis=polynomial_basis(3), q=np.array([0.6, 0.3, 0.1]),
                     c=np.array([1.0, 0.5, 0.25]), noise_std=noise_std, seed=seed)


def make_record(mse, werr, imag):
    return RunRecord(mse_curve=np.array(mse, dtype=float), weight_error_curve=np.array(werr, dtype=float),
                     imag_curve=np.array(imag, dtype=float), diverged=False,
                     final_state=initial_state(FilterConfig(variant="lms", eta=0.1, dim=1)), omega_opt=np.zeros(1))


def linear_plant(noise_std=0.01, seed=3):
    # l = 1 keeps the regressor light-tailed with R ~= I
    return HarxPlant(m=3, basis=polynomial_basis(1), q=np.array([0.6, 0.3, 0.1]),
                     c=np.array([1.0]), noise_std=noise_std, seed=seed)


# ---------------------------------------------------------------------------
# estimate_correlations


def test_correlations_single_sample_is_outer_product():
    psi = np.array([1.0, -2.0, 0.5])
    est = estimate_correlations(synthetic_dataset([psi], [3.0]))
    np.testing.assert_allclose(est.R, np.outer(psi, psi))
    np.testing.assert_allclose(est.p, 3.0 * psi)
    assert est.sample_count == 1


def test_correlations_constant_regressor_rank_one():
    X = np.ones((50, 3))
    est = estimate_correlations(synthetic_dataset(X, np.ones(50)))
    np.testing.assert_allclose(est.R, np.ones((3, 3)), atol=1e-14)
    assert est.eigenvalues[0] == pytest.approx(3.0)
    assert abs(est.eigenvalues[1]) < 1e-10 and abs(est.eigenvalues[2]) < 1e-10


def test_correlations_law_of_large_numbers():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10**5, 4))
    est = estimate_correlations(synthetic_dataset(X, X @ np.array([1.0, 0.0, -1.0, 0.5])))
    assert np.max(np.abs(est.R - np.eye(4))) < 0.05
    assert np.max(np.abs(est.R - est.R.T)) <= 1e-12
    assert est.eigenvalues[-1] >= -1e-10


def test_correlations_empty_dataset():
    with pytest.raises(EmptyDataset):
        estimate_correlations(synthetic_dataset(np.zeros((0, 3)), np.zeros(0)))


# ---------------------------------------------------------------------------
# wiener_solution


def test_wiener_identity_correlation():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((2 * 10**5, 3))
    w = np.array([0.7, -0.2, 0.4])
    est = estimate_correlations(synthetic_dataset(X, X @ w))
    np.testing.assert_allclose(wiener_solution(est), w, atol=2e-3)


def test_wiener_noise_free_harx_consistency():
    plant = muscle_structure(noise_std=0.0)
    data = generate_sequence(plant, T=10**5 + plant.m, rng=np.random.default_rng(0))
    omega = wiener_solution(estimate_correlations(data))
    w = true_weight_vector(plant)
    assert np.linalg.norm(omega - w) / np.linalg.norm(w) <= 1e-3


def test_wiener_gap_shrinks_with_samples():
    # with the shipped output noise the empirical Wiener gap decays ~ N^-1/2
    plant = muscle_structure(noise_std=0.01)
    w = true_weight_vector(plant)
    gaps = []
    for N in (10**3, 10**4, 10**5):
        data = generate_sequence(plant, T=N + plant.m, rng=np.random.default_rng(0))
        omega = wiener_solution(estimate_correlations(data))
        gaps.append(np.linalg.norm(omega - w) / np.linalg.norm(w))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-3


def test_wiener_singular_correlation():
    est = estimate_correlations(synthetic_dataset(np.ones((10, 3)), np.ones(10)))
    with pytest.raises(SingularCorrelation):
        wiener_solution(est, ridge=0.0)
    # a ridge restores solvability
    omega = wiener_solution(est, ridge=1e-3)
    assert np.all(np.isfinite(omega))


def test_correlation_checks_scale_with_the_data():
    # scaling X must not change which of SingularCorrelation / the PSD error is raised
    rng = np.random.default_rng(5)
    well = rng.standard_normal((300, 3))
    rank_one = rng.standard_normal((300, 1)) * np.array([1.0, -2.0, 0.5])
    for scale in (1e-6, 1.0, 1e6):
        est = estimate_correlations(synthetic_dataset(well * scale, well @ np.ones(3)))
        assert np.all(np.isfinite(wiener_solution(est)))
        est = estimate_correlations(synthetic_dataset(rank_one * scale, np.ones(300)))
        with pytest.raises(SingularCorrelation):
            wiener_solution(est)


# ---------------------------------------------------------------------------
# simulate_seeds


def test_simulate_seeds_holds_one_copy_of_the_regressors():
    plant, seeds = muscle_preset(), range(4)
    simulate_seeds(plant, 200, seeds)  # first-call allocations stay outside the trace
    tracemalloc.start()
    try:
        data = simulate_seeds(plant, 20000, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stacked X, written in place, plus one seed's inputs, outputs and noise at a time
    assert peak < 1.3 * data.X.nbytes
    for s, seed in enumerate(seeds):
        alone = generate_sequence(plant, T=20000, rng=np.random.default_rng(seed))
        assert np.array_equal(data.X[s], alone.X) and np.array_equal(data.outputs[s], alone.outputs)


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_lms_converges_on_muscle_structure():
    # eta chosen inside the empirically stable region for the heavy-tailed
    # cubic regressor (the classical 2/lambda_max bound is far too optimistic
    # here)
    plant = muscle_structure()
    cfg = FilterConfig(variant="lms", eta=0.002, dim=plant.n)
    rec = run_experiment(plant, cfg, 5000, seed=0)
    assert not rec.diverged
    assert rec.weight_error_curve[-1] <= 0.1 * rec.weight_error_curve[0]


def test_run_experiment_diverges_at_5x_classical_bound():
    plant = linear_plant()
    data = generate_sequence(plant, T=1500, rng=np.random.default_rng(0))
    lam = estimate_correlations(data).lambda_max
    cfg = FilterConfig(variant="lms", eta=10.0 / lam, dim=plant.n)
    rec = run_experiment(plant, cfg, 1500, seed=0)
    assert rec.diverged
    assert len(rec.mse_curve) == len(rec.weight_error_curve) == len(rec.imag_curve)


def test_run_experiment_deterministic_byte_for_byte():
    plant = muscle_structure()
    cfg = FilterConfig(variant="mflms_modulus", eta=0.002, dim=plant.n, beta=0.2, v=0.75)
    a = run_experiment(plant, cfg, 800, seed=5)
    b = run_experiment(plant, cfg, 800, seed=5)
    assert run_record_csv(a) == run_record_csv(b)
    np.testing.assert_array_equal(a.omega_opt, b.omega_opt)


def test_run_experiment_flms_imag_curve_nonzero():
    plant = HarxPlant(m=1, basis=polynomial_basis(2), q=np.array([1.0]),
                      c=np.array([1.0, -1.0]), noise_std=0.01, seed=0)
    cfg = FilterConfig(variant="flms_signed", eta=0.01, dim=2, beta=0.2, v=0.5)
    rec = run_experiment(plant, cfg, 2000, seed=1)
    assert rec.imag_curve.max() > 0.0


def test_run_record_csv_format():
    plant = linear_plant()
    cfg = FilterConfig(variant="lms", eta=0.05, dim=plant.n)
    rec = run_experiment(plant, cfg, 50, seed=2)
    lines = run_record_csv(rec).splitlines()
    assert lines[0] == "iter,mse,weight_error,imag_norm"
    assert len(lines) == len(rec.mse_curve) + 1
    assert all(line.count(",") == 3 for line in lines)


def test_run_record_csv_matches_per_cell_format():
    from harxlab.cli import _g as _cell

    def per_cell(rec):  # the one-format-call-per-cell rendering the bulk pass must reproduce
        lines = ["iter,mse,weight_error,imag_norm"]
        for i in range(len(rec.mse_curve)):
            lines.append(f"{i},{_cell(rec.mse_curve[i])},{_cell(rec.weight_error_curve[i])},{_cell(rec.imag_curve[i])}")
        return "\n".join(lines) + "\n"

    odd = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1 / 3, -123456789.0]
    k = len(odd)
    # imag curves around the all-+0.0 shortcut: -0.0 prints -0 and NaN prints nan, so neither may take it
    for imag in ([1e-17] * k, [0.0] * k, [-0.0] * k, [0.0] * (k - 1) + [-0.0], [0.0] * (k - 1) + [np.nan]):
        rec = make_record(odd, odd[::-1], imag)
        assert run_record_csv(rec) == per_cell(rec)
    assert run_record_csv(make_record([1.0], [2.0], [-0.0])).endswith(",-0\n")
    assert run_record_csv(make_record([1.0], [2.0], [np.nan])).endswith(",nan\n")
    # lengths 1, 2, then 1 again, real and not: a template cached under the wrong key shows
    for n_rows in (1, 2, 1):
        for imag in (0.0, 0.5):
            rec = make_record(odd[:n_rows], odd[-n_rows:], [imag] * n_rows)
            assert run_record_csv(rec) == per_cell(rec)
    empty = make_record([], [], [])
    assert run_record_csv(empty) == per_cell(empty) == "iter,mse,weight_error,imag_norm\n"
    plant = linear_plant()
    rec = run_experiment(plant, FilterConfig(variant="lms", eta=0.05, dim=plant.n), 300, seed=4)
    assert run_record_csv(rec) == per_cell(rec)


# ---------------------------------------------------------------------------
# the leak scan of run_summary


def leak_summary(imag):
    return run_summary(make_record(np.zeros(len(imag)), np.zeros(len(imag)), imag))


def test_leak_report_all_real():
    summary = leak_summary(np.zeros(10))
    assert summary["first_leak_iter"] is None
    assert summary["max_imag"] == 0.0 and summary["leak_fraction"] == 0.0


def test_leak_report_direct_scan():
    summary = leak_summary([0.0, 0.0, 0.5, 0.2])
    assert summary["first_leak_iter"] == 2
    assert summary["max_imag"] == 0.5
    assert summary["leak_fraction"] == 0.5


def test_leak_report_monte_carlo_batch():
    plant = HarxPlant(m=1, basis=polynomial_basis(2), q=np.array([1.0]),
                      c=np.array([1.0, -1.0]), noise_std=0.01, seed=0)
    cfg = FilterConfig(variant="flms_signed", eta=0.01, dim=2, beta=0.2, v=0.5)
    for seed in range(20):
        summary = run_summary(run_experiment(plant, cfg, 500, seed))
        assert summary["leak_fraction"] > 0.0
        assert summary["first_leak_iter"] is not None


# ---------------------------------------------------------------------------
# binomial


def test_binomial_truncation_matches_direct_power():
    res = binomial_residual(2.0, 0.5, 0.5, 20)
    assert res[20] < 1e-6  # oracle: 2.5**0.5 ~= 1.5811


def test_binomial_zero_delta_single_term():
    res = binomial_residual(1.7, 0.0, 0.5, 10)
    np.testing.assert_allclose(res, 0.0, atol=1e-16)


def test_binomial_divergence_outside_radius():
    res = binomial_residual(0.5, 2.0, 0.5, 30)
    assert res[30] > res[5] > res[0] * 0  # residual grows with K
    assert res[30] > 1e6


def test_binomial_domain_errors():
    with pytest.raises(DomainError):
        binomial_residual(0.0, 0.5, 0.5, 5)
    with pytest.raises(DomainError):
        binomial_residual(1.0, -2.0, 0.5, 5)  # omega + delta <= 0, non-integer exponent
    with pytest.raises(DomainError):
        binomial_residual(-1.0, 0.5, 0.5, 5)  # series terms need omega > 0
    # integer exponents stay in the real domain
    res = binomial_residual(-2.0, 1.0, 3.0, 10)
    assert res[-1] == pytest.approx(0.0, abs=1e-12)


def test_binomial_residual_nonincreasing_inside_radius():
    for omega, delta, exponent in [(2.0, 0.5, 0.5), (1.0, -0.4, 1.5), (3.0, 1.2, -0.5), (0.8, 0.2, 0.5)]:
        res = binomial_residual(omega, delta, exponent, 30)
        assert np.all(np.diff(res) <= 1e-12)


def test_binomial_vector_verdict():
    assert binomial_vector_verdict(2).outcome == "mismatch"
    assert binomial_vector_verdict(9).outcome == "mismatch"
    # n = 1 degenerates to the ordinary scalar expansion (documented boundary)
    assert binomial_vector_verdict(1).outcome == "well_formed"
    with pytest.raises(ValueError):
        binomial_vector_verdict(0)


def test_binomial_report_bundles_both_sides():
    report = binomial_report(2.0, 0.5, 0.5, 30, n=9)
    assert report.vector_verdict == "type_mismatch"
    assert report.scalar_residuals[-1] < 1e-8
    assert "vector reading" in report.notes


# ---------------------------------------------------------------------------
# stability probe / sweep cells


def test_stability_probe_brackets_classical_bound():
    plant = linear_plant()
    cfg = FilterConfig(variant="lms", eta=0.01, dim=plant.n)
    probe = stability_probe(plant, cfg, [0.05, 0.2, 8.0], T=800, seeds=range(5))
    assert probe.diverged_fraction[0] == 0.0
    assert probe.diverged_fraction[-1] == 1.0
    assert np.all(np.diff(probe.diverged_fraction) >= 0.0)
    assert len(probe.cells) == len(probe.diverged_fraction) + 1  # the 2 / lambda_max cell last
    assert 1.5 < 2.0 / probe.lambda_max < 2.6  # R ~= I for this plant
    # the probe's cells are sweep_cells over its configs, the reference last, on the same data
    cfgs = [replace(cfg, eta=eta) for eta in (0.05, 0.2, 8.0, 2.0 / probe.lambda_max)]
    np.testing.assert_equal(list(probe.cells), sweep_cells(cfgs, simulate_seeds(plant, 800, range(5))))


def test_stability_probe_grid_validation():
    plant = linear_plant()
    cfg = FilterConfig(variant="lms", eta=0.01, dim=plant.n)
    with pytest.raises(ValueError):
        stability_probe(plant, cfg, [0.2, 0.1], T=100, seeds=[0])
    with pytest.raises(ValueError):
        stability_probe(plant, cfg, [-0.1, 0.2], T=100, seeds=[0])


def test_sweep_cell_aggregates():
    plant = linear_plant()
    data = simulate_seeds(plant, 400, [0, 1, 2])
    cell = sweep_cells([FilterConfig(variant="lms", eta=0.05, dim=plant.n)], data)[0]
    assert cell["diverged_count"] == 0 and cell["diverged_fraction"] == 0.0
    assert np.isfinite(cell["terminal_weight_error_mean"])
    assert cell["leak_fraction_mean"] == 0.0 and cell["max_imag"] == 0.0
    # every seed diverges far beyond the bound: the terminal statistics are NaN
    cell = sweep_cells([FilterConfig(variant="lms", eta=50.0, dim=plant.n)], data)[0]
    assert cell["diverged_count"] == 3 and cell["diverged_fraction"] == 1.0
    for key in ("terminal_mse_mean", "terminal_weight_error_mean", "terminal_weight_error_max"):
        assert np.isnan(cell[key])
