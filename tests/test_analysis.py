import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from harxlab import analysis, shapecheck
from harxlab.analysis import (
    CorrelationEstimate,
    RunRecord,
    _csv_template,
    _Tally,
    binomial_report,
    binomial_residual,
    binomial_vector_verdict,
    estimate_correlations,
    run_experiment,
    run_record_csv,
    run_summary,
    simulate_seeds,
    stability_probe,
    stream_correlations,
    sweep_cells,
    wiener_solution,
)
from harxlab.errors import DataOverflow, DimensionMismatch, DomainError, EmptyDataset, SingularCorrelation
from harxlab.filters import FilterConfig, initial_state
from harxlab.plant import (
    INPUT_KINDS, Dataset, HarxPlant, generate_sequence, muscle_preset, polynomial_basis, true_weight_vector,
)


def synthetic_dataset(X, outputs):
    X = np.asarray(X, dtype=np.float64)
    return Dataset(inputs=np.zeros(X.shape[0]), X=X, outputs=np.asarray(outputs, float))


def muscle_structure(noise_std=0.01, seed=7):
    return HarxPlant(m=3, basis=polynomial_basis(3), q=np.array([0.6, 0.3, 0.1]),
                     c=np.array([1.0, 0.5, 0.25]), noise_std=noise_std, seed=seed)


def make_record(mse, werr, imag):
    """A run with these curves and no complex event.  Its summary comes from the reductions run_batch
    applies per block, the curves folded as one block of one signed row; a record without steps,
    which only the CSV tests build, has none."""
    mse, werr, imag = (np.array(curve, dtype=float) for curve in (mse, werr, imag))
    summary = {}
    if len(mse):
        tally = _Tally(1)
        tally.fold(0, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool), np.array([len(mse) - 1]), mse[:, None],
                   werr[:, None], slice(0, 1), imag[:, None], np.zeros((len(mse), 1)))
        summary = tally.summaries()[0]
    return RunRecord(mse_curve=mse, weight_error_curve=werr, imag_curve=imag, diverged=False,
                     final_state=initial_state(FilterConfig(variant="lms", eta=0.1, dim=1)), omega_opt=np.zeros(1),
                     summary=summary)


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


@pytest.mark.parametrize("noise_std", [0.0, 0.05])
@pytest.mark.parametrize("input_kind", INPUT_KINDS)
def test_streamed_correlations_equal_the_materialized_ones_bit_for_bit(input_kind, noise_std):
    plant = replace(muscle_preset(), noise_std=noise_std)
    T = plant.m + 3 * analysis._chunk_rows(plant.n) + 1234  # three whole chunks and a ragged fourth
    data = generate_sequence(plant, input_kind, T=T, rng=np.random.default_rng(11))
    want = estimate_correlations(data)
    got = stream_correlations(plant, input_kind, T=T, rng=np.random.default_rng(11))
    for field in ("R", "p", "eigenvalues"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.sample_count == want.sample_count == T - plant.m
    # the chunk sums drift from one X.T @ X by roundoff alone
    X, N = data.X, len(data)
    np.testing.assert_allclose(got.R, X.T @ X / N, rtol=1e-12)
    np.testing.assert_allclose(got.p, X.T @ data.outputs / N, rtol=1e-12)


def test_chunks_are_a_multiple_of_8_rows():
    for n in range(1, 21):
        assert analysis._chunk_rows(n) % 8 == 0 and analysis._chunk_rows(n) * n * 8 <= analysis._CHUNK_BYTES


@pytest.mark.parametrize("m,l,T,seeds,noise_std,input_kind", [
    (3, 3, None, (5, 6), 0.0, "white_gaussian"), (2, 5, None, (5, 6), 0.0, "white_gaussian"),
    (3, 4, None, (5, 6), 0.0, "white_gaussian"), (3, 5, None, (5, 6), 0.0, "white_gaussian"),
    (3, 3, 300, range(25), 0.0, "white_gaussian"),
    (3, 3, None, (5, 6), 0.05, "white_gaussian"), (3, 3, 300, range(25), 0.05, "white_gaussian"),
    (1, 1, None, (5, 6), 0.05, "white_gaussian"), (1, 2, None, (5, 6), 0.0, "white_gaussian"),
    (1, 2, 300, range(25), 0.05, "white_gaussian"), (2, 3, None, (5, 6), 0.05, "uniform"),
], ids=["n9", "n10", "n12", "n15", "n9-T300-25seeds", "n9-noisy", "n9-T300-25seeds-noisy", "m1-n1-noisy", "m1-n2",
        "m1-n2-T300-25seeds-noisy", "n6-noisy-uniform"])
def test_simulated_seeds_equal_the_materialized_dataset_byte_for_byte(m, l, T, seeds, noise_std, input_kind):
    # a chunk's X_c @ w has the bits the whole X @ w gives its rows, and the noise drawn a chunk at a time
    # the bits it has drawn at once
    rng = np.random.default_rng(m * l)
    plant = HarxPlant(m=m, basis=polynomial_basis(l), q=rng.uniform(-1, 1, m), c=rng.uniform(-1, 1, l),
                      noise_std=noise_std)
    T = T or m + 3 * analysis._chunk_rows(plant.n) + 777  # by default three whole chunks and a ragged fourth
    data, w = simulate_seeds(plant, T, seeds, input_kind), true_weight_vector(plant)
    step = analysis._chunk_rows(plant.n)
    for s, seed in enumerate(seeds):
        want = generate_sequence(plant, input_kind, T=T, rng=np.random.default_rng(seed))
        chunked = np.concatenate([want.X[a : a + step] @ w for a in range(0, len(want), step)])
        assert chunked.tobytes() == (want.X @ w).tobytes()
        assert data.X[s].tobytes() == want.X.tobytes()
        assert data.outputs[s].tobytes() == want.outputs.tobytes()
        assert (noise_std > 0) == (want.outputs.tobytes() != (want.X @ w).tobytes())
        est = estimate_correlations(want)
        assert data.lambda_max[s].tobytes() == np.float64(est.lambda_max).tobytes()
        assert data.omega[s].tobytes() == wiener_solution(est).tobytes()


def test_correlations_of_one_chunk_are_one_gram_matrix():
    plant = muscle_preset()
    T = plant.m + analysis._chunk_rows(plant.n)  # exactly one full chunk
    data = generate_sequence(plant, T=T, rng=np.random.default_rng(12))
    X, N = data.X, len(data)
    R = X.T @ X / N
    for est in (estimate_correlations(data), stream_correlations(plant, T=T, rng=np.random.default_rng(12))):
        assert est.R.tobytes() == (0.5 * (R + R.T)).tobytes()
        assert est.p.tobytes() == (X.T @ data.outputs / N).tobytes()


@pytest.mark.parametrize("R,eigenvalues,error,match", [
    (np.eye(3), [1.0, 1.0], DimensionMismatch, "inconsistent estimate shapes"),
    ([[1.0, 0.5], [0.0, 1.0]], [1.5, 0.5], ValueError, "R must be symmetric"),
    (np.eye(2), [1.0, 2.0], ValueError, "eigenvalues must be sorted descending"),
    (np.diag([1.0, -1e-9]), [1.0, -1e-9], ValueError, "R is not PSD up to tolerance"),
], ids=["shapes", "symmetry", "order", "psd"])
def test_correlation_estimate_checks_its_fields(R, eigenvalues, error, match):
    with pytest.raises(error, match=match):
        CorrelationEstimate(R=R, p=np.zeros(2), eigenvalues=eigenvalues, sample_count=1)


# ---------------------------------------------------------------------------
# wiener_solution


def test_correlation_estimate_takes_p_as_a_vector():
    for p in (np.zeros((2, 1)), np.float64(0.0)):
        with pytest.raises(DimensionMismatch, match="inconsistent estimate shapes"):
            CorrelationEstimate(R=np.eye(2), p=p, eigenvalues=np.ones(2), sample_count=1)


def test_correlation_estimate_keeps_frozen_copies_of_the_callers_arrays():
    R, p, eigenvalues = np.eye(2), np.ones(2), np.ones(2)
    est = CorrelationEstimate(R=R, p=p, eigenvalues=eigenvalues, sample_count=1)
    for given, kept in ((R, est.R), (p, est.p), (eigenvalues, est.eigenvalues)):
        assert given.flags.writeable and not kept.flags.writeable and not np.shares_memory(given, kept)


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


def test_wiener_solution_rejects_a_bad_ridge_before_any_solve():
    est = estimate_correlations(synthetic_dataset(np.ones((10, 3)), np.ones(10)))
    with mock.patch.object(analysis, "_checked", mock.Mock(side_effect=AssertionError("solved"))):
        for ridge in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"^ridge must be finite and >= 0, got {re.escape(str(ridge))}$"):
                wiener_solution(est, ridge=ridge)


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
    with pytest.raises(ValueError, match="at least one seed is required"):
        simulate_seeds(plant, 200, [])


def test_simulate_seeds_raises_the_first_failing_seeds_first_failing_check():
    # r, r^2, ..., r^300 of one Gaussian input: R holds r^600, which overflows for |r| above about 3.26;
    # seed 1 draws such an r, seed 2 does not, and its R is singular
    plant = HarxPlant(m=1, basis=polynomial_basis(300), q=np.array([1.0]), c=np.full(300, 1e-300))
    singular, overflowing, T = 2, 1, 2000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataOverflow):
            stream_correlations(plant, T=T, rng=np.random.default_rng(overflowing))
        with pytest.raises(SingularCorrelation) as alone:
            wiener_solution(stream_correlations(plant, T=T, rng=np.random.default_rng(singular)))
        with pytest.raises(SingularCorrelation) as first:
            simulate_seeds(plant, T, [singular, overflowing])
        assert str(first.value) == str(alone.value)
        with pytest.raises(DataOverflow, match="R or p is not finite"):
            simulate_seeds(plant, T, [overflowing, singular])


def test_seed_data_freezes_views_of_the_callers_arrays():
    arrays = (np.zeros((1, 2, 3)), np.zeros((1, 2)), np.zeros((1, 3)), np.ones(1))
    data = analysis.SeedData(*arrays)
    for given, kept in zip(arrays, (data.X, data.outputs, data.omega, data.lambda_max)):
        assert given.flags.writeable and not kept.flags.writeable and np.shares_memory(given, kept)


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


@pytest.mark.parametrize("real", [True, False], ids=["real", "signed"])
@pytest.mark.parametrize("k", [0, 1, 2, 299, 5000])
def test_csv_template_equals_one_row_at_a_time(k, real):
    imag = "0" if real else "%.17g"
    rows = "iter,mse,weight_error,imag_norm\n" + "".join(f"{i},%.17g,%.17g,{imag}\n" for i in range(k))
    assert _csv_template(k, real) == rows


# ---------------------------------------------------------------------------
# the leak reductions of run_summary


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
    # a leak is a norm above 1e-15, not at it
    assert leak_summary([1e-15, 2e-15, 0.0, 0.0])["first_leak_iter"] == 1


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
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        binomial_residual(2.0, 0.5, 0.5, k_max=-1)


def test_binomial_residual_nonincreasing_inside_radius():
    for omega, delta, exponent in [(2.0, 0.5, 0.5), (1.0, -0.4, 1.5), (3.0, 1.2, -0.5), (0.8, 0.2, 0.5)]:
        res = binomial_residual(omega, delta, exponent, 30)
        assert np.all(np.diff(res) <= 1e-12)


def test_binomial_vector_verdict():
    assert binomial_vector_verdict(9).describe() == dict(shapecheck.audit_corpus())["eq25"].describe()
    verdict = binomial_vector_verdict(2)
    assert (verdict.rule_violated, verdict.message) == ("equation-sides", "left side is vector(2), right side is scalar")
    # n = 1 degenerates to the ordinary scalar expansion (documented boundary)
    assert binomial_vector_verdict(1).describe() == "well_formed(scalar)"
    with pytest.raises(ValueError, match="n must be >= 1"):
        binomial_vector_verdict(0)


def test_eq25_has_one_check(monkeypatch):
    # the audit's eq25 row and binomial_vector_verdict both return what shapecheck.eq25_verdict gives
    calls = []
    verdict = shapecheck.ShapeVerdict.well_formed(shapecheck.Shape.matrix(2, 3))
    monkeypatch.setattr(shapecheck, "eq25_verdict", lambda n: calls.append(n) or verdict)
    assert dict(shapecheck.audit_corpus())["eq25"] is verdict
    assert binomial_vector_verdict(4) is verdict
    assert calls == [9, 4]


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


def test_stability_probe_keeps_no_curves():
    # n = 2 and 40 grid values plus the reference: the curves of every (eta, seed) run, two of N float64
    # each, would take 41 x the regressors
    plant = HarxPlant(m=1, basis=polynomial_basis(2), q=np.array([1.0]), c=np.array([1.0, -1.0]),
                      noise_std=0.01, seed=0)
    cfg, grid, seeds = FilterConfig(variant="lms", eta=0.01, dim=plant.n), np.geomspace(0.001, 3.0, 40), range(20)
    stability_probe(plant, cfg, grid, 50, seeds)  # first-call allocations stay outside the trace
    X_bytes = simulate_seeds(plant, 5001, seeds).X.nbytes
    tracemalloc.start()
    try:
        probe = stability_probe(plant, cfg, grid, 5001, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the regressors and the outputs (X / n), one seed's simulation at a time, and one time block: its
    # weight history and regressors, about _BLOCK_BYTES each, and its per-step, per-row work arrays
    assert peak < 1.75 * X_bytes + 12 * analysis._BLOCK_BYTES
    assert probe.diverged_fraction[0] == 0.0 and probe.diverged_fraction[-1] == 1.0


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
