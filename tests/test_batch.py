"""The batched update kernel against the single-step oracle in harxlab.filters."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harxlab import analysis
from harxlab.analysis import (
    DIVERGENCE_THRESHOLD,
    _factor,
    _factor_groups,
    complex_leak_report,
    run_batch,
    run_experiment,
    run_record_csv,
    run_summary,
    simulate_seeds,
)
from harxlab.errors import DimensionMismatch
from harxlab.filters import FilterConfig, initial_state, step
from harxlab.plant import HarxPlant, polynomial_basis

# n = 4 with negative true weights: flms_signed leaks, and BLAS sums the
# real variants' prediction error in another order than the oracle does
PLANT = HarxPlant(m=2, basis=polynomial_basis(2), q=np.array([1.0, -0.5]),
                  c=np.array([1.0, -1.0]), noise_std=0.01, seed=0)
T = 200
SEEDS = (0, 1, 2, 3, 4, 5)
DATA = simulate_seeds(PLANT, T, SEEDS)
KINDS = (
    ("lms", "elementwise_abs"),
    ("momentum_lms", "elementwise_abs"),
    ("flms_signed", "elementwise_abs"),
    ("flms_signed", "euclidean_norm"),
    ("mflms_modulus", "elementwise_abs"),
    ("mflms_modulus", "euclidean_norm"),
)
DIVERGING_ETA = 5.0


def configs(variant, interp):
    """Three configs of one kind: two with distinct v (0.5 takes np.power's sqrt
    fast path) and one that diverges within a few steps."""
    make = lambda **kw: FilterConfig(variant=variant, dim=PLANT.n, power_interpretation=interp, **kw)  # noqa: E731
    return [
        make(eta=0.01, beta=0.2, v=0.5, epsilon_guard=0.05),
        make(eta=0.02, beta=0.4, v=0.75),
        make(eta=DIVERGING_ETA, beta=0.3, v=0.9),
    ]


def oracle(cfg, s):
    """The per-step loop over filters.step: (final state, mse, werr, imag, diverged)."""
    X, d, omega = DATA.X[s], DATA.outputs[s], DATA.omega[s]
    state = initial_state(cfg)
    mse, werr, imag = [], [], []
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for psi, desired in zip(X, d):
            state, rec = step(state, cfg, psi, float(desired))
            mse.append(rec.error * rec.error)
            werr.append(float(np.linalg.norm(state.w.real - omega)))
            imag.append(rec.imag_norm)
            latest = (mse[-1], werr[-1], imag[-1])
            if not all(np.isfinite(latest)) or max(latest) > DIVERGENCE_THRESHOLD:
                diverged = True
                break
    return state, np.array(mse), np.array(werr), np.array(imag), diverged


def close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    with np.errstate(invalid="ignore"):
        ok = (actual == expected) | (np.abs(actual - expected) <= 1e-12 + 1e-9 * np.abs(expected))
    assert np.all(ok | (np.isnan(actual) & np.isnan(expected))), (actual, expected)


@pytest.mark.parametrize("variant,interp", KINDS)
def test_run_batch_matches_step_oracle(variant, interp):
    cfgs = configs(variant, interp)
    batch = run_batch(cfgs, DATA.X, DATA.outputs, DATA.omega)
    assert len(batch) == len(cfgs) and all(len(row) == len(SEEDS) for row in batch)
    diverged = 0
    for cfg, records in zip(cfgs, batch):
        for s, rec in enumerate(records):
            state, mse, werr, imag, div = oracle(cfg, s)
            close(rec.mse_curve, mse)
            close(rec.weight_error_curve, werr)
            close(rec.imag_curve, imag)
            close(rec.final_state.w, state.w)
            close(rec.final_state.w_prev, state.w_prev)
            assert rec.diverged == div
            assert rec.final_state.iteration == state.iteration == len(mse)
            assert rec.final_state.complex_events == state.complex_events
            assert complex_leak_report(rec).first_leak_iter == complex_leak_report(imag).first_leak_iter
            np.testing.assert_array_equal(rec.omega_opt, DATA.omega[s])
            diverged += div
    assert diverged == len(SEEDS)  # exactly the DIVERGING_ETA row diverges, on every seed


def test_run_experiment_is_a_batch_of_one():
    cfg = configs("flms_signed", "elementwise_abs")[0]
    rec = run_experiment(PLANT, cfg, T, SEEDS[2])
    state, mse, werr, imag, _ = oracle(cfg, 2)
    np.testing.assert_array_equal(rec.mse_curve, mse)  # n = 4 complex rows: the oracle's very sums
    np.testing.assert_array_equal(rec.imag_curve, imag)
    assert rec.final_state.complex_events == state.complex_events


POOL = [cfg for variant, interp in KINDS for cfg in configs(variant, interp)]


@st.composite
def batches(draw):
    """Configs of any of the six kinds, in any order and with repeats."""
    chosen = draw(st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=8))
    seeds = draw(st.lists(st.sampled_from(range(len(SEEDS))), min_size=1, max_size=4, unique=True))
    return [POOL[i] for i in chosen], seeds


@functools.cache
def batch_of_one(cfg, s):
    """Row (cfg, seed s) run alone, computed once per pytest run."""
    return run_batch([cfg], DATA.X[[s]], DATA.outputs[[s]], DATA.omega[[s]])[0][0]


@given(batches())
# every kind in one call, twice, interleaved: the records must come back in input order
@example(([configs(*kind)[k % 3] for k, kind in enumerate(KINDS + KINDS[::-1])], [3, 0]))
@settings(max_examples=30, deadline=None)
def test_batch_composition_invariance(batch_spec):
    cfgs, seeds = batch_spec
    X, d, omega = DATA.X[seeds], DATA.outputs[seeds], DATA.omega[seeds]
    batch = run_batch(cfgs, X, d, omega)
    for c, cfg in enumerate(cfgs):
        for j, s in enumerate(seeds):
            alone = batch_of_one(cfg, s)
            inside = batch[c][j]
            # a bool, not the assert's own ==: pytest would diff two long CSVs for every shrink step
            same_csv = run_record_csv(inside) == run_record_csv(alone)
            assert same_csv, f"row ({c}, seed {s}): CSV differs from the row run alone"
            assert run_summary(inside) == run_summary(alone)
            np.testing.assert_array_equal(inside.final_state.w, alone.final_state.w)
            np.testing.assert_array_equal(inside.final_state.w_prev, alone.final_state.w_prev)
            for field in ("iteration", "complex_events"):
                assert getattr(inside.final_state, field) == getattr(alone.final_state, field)


@pytest.mark.parametrize("variant,interp", KINDS)
def test_diverged_row_freezes_at_its_stopping_step(variant, interp):
    steady, _, diverging = configs(variant, interp)
    records = run_batch([steady, diverging], DATA.X[:2], DATA.outputs[:2], DATA.omega[:2])
    for s in range(2):
        rec = records[1][s]
        k = rec.final_state.iteration
        assert rec.diverged and 0 < k < T
        assert len(rec.mse_curve) == len(rec.weight_error_curve) == len(rec.imag_curve) == k
        curves = np.stack([rec.mse_curve, rec.weight_error_curve, rec.imag_curve])
        assert np.all(curves[:, :-1] <= DIVERGENCE_THRESHOLD)
        assert not np.all(curves[:, -1] <= DIVERGENCE_THRESHOLD)
        state = oracle(diverging, s)[0]  # the oracle's state after the stopping step
        assert state.iteration == k
        close(rec.final_state.w, state.w)
        close(rec.final_state.w_prev, state.w_prev)
        assert rec.final_state.complex_events == state.complex_events
        # the steady row beside it runs to the end
        assert not records[0][s].diverged and len(records[0][s].mse_curve) == T - PLANT.m


@pytest.mark.parametrize("signed", [False, True], ids=["float64", "complex128"])
def test_block_boundaries_change_nothing(monkeypatch, signed):
    # every pool config of one time loop, under blocks of 1, 3 and 4 steps and of the whole run
    cfgs = [cfg for cfg in POOL if (cfg.variant == "flms_signed") == signed]
    default = run_batch(cfgs, DATA.X, DATA.outputs, DATA.omega)
    stops = [rec.final_state.iteration - 1 for records in default for rec in records if rec.diverged]
    step_bytes = len(cfgs) * len(SEEDS) * PLANT.n * (16 if signed else 8)  # one step of every row
    for steps in (1, 3, 4, T):
        monkeypatch.setattr(analysis, "_BLOCK_BYTES", steps * step_bytes)
        if 1 < steps < T:  # some row stops on the first step of a block, and some row on the last
            assert any(t % steps == 0 for t in stops) and any(t % steps == steps - 1 for t in stops)
        for records, expected in zip(run_batch(cfgs, DATA.X, DATA.outputs, DATA.omega), default):
            for rec, want in zip(records, expected):
                same_csv = run_record_csv(rec) == run_record_csv(want)
                assert same_csv, f"{steps}-step blocks: CSV differs"
                assert run_summary(rec) == run_summary(want)
                np.testing.assert_array_equal(rec.final_state.w, want.final_state.w)
                np.testing.assert_array_equal(rec.final_state.w_prev, want.final_state.w_prev)
                for field in ("iteration", "complex_events"):
                    assert getattr(rec.final_state, field) == getattr(want.final_state, field)


@pytest.mark.parametrize("variant,interp", [k for k in KINDS if k[0] != "flms_signed"])
def test_real_rows_stay_real(variant, interp):
    for records in run_batch(configs(variant, interp), DATA.X, DATA.outputs, DATA.omega):
        for rec in records:
            assert np.all(rec.imag_curve == 0.0)
            assert rec.final_state.complex_events == 0
            assert np.all(rec.final_state.w.imag == 0.0) and np.all(rec.final_state.w_prev.imag == 0.0)


def test_power_takes_each_rows_exponent_as_a_scalar():
    # np.power has scalar-exponent fast paths (sqrt for 0.5) that an exponent
    # array skips; every row must get what the single-step function computes
    base = np.abs(np.random.default_rng(3).standard_normal((3, 4, 9)))
    exponent = np.array([0.5, 0.25, 0.5])
    cfgs = [FilterConfig(variant="mflms_modulus", eta=0.01, dim=9, v=1.0 - e) for e in exponent]
    got = np.empty_like(base)
    groups, group_of = _factor_groups(cfgs)
    for g, (kind, e) in enumerate(groups):
        rows = group_of == g
        got[rows] = _factor(kind, base[rows], np.zeros((len(base[rows]), 1, 1)), e)
    for c, e in enumerate(exponent):
        np.testing.assert_array_equal(got[c], np.power(base[c], float(e)))
    assert np.any(np.power(base, 0.5) != np.power(base, np.full((3, 1, 1), 0.5)))  # the fast path exists
    assert groups == [("elementwise_abs", 0.25), ("elementwise_abs", 0.5)] and group_of.tolist() == [1, 0, 1]


def test_run_batch_rejects_bad_shapes():
    lms = FilterConfig(variant="lms", eta=0.01, dim=PLANT.n)
    with pytest.raises(DimensionMismatch):
        run_batch([FilterConfig(variant="lms", eta=0.01, dim=3)], DATA.X, DATA.outputs, DATA.omega)
    with pytest.raises(DimensionMismatch):
        run_batch([lms], DATA.X, DATA.outputs[:, :-1], DATA.omega)
    assert run_batch([], DATA.X, DATA.outputs, DATA.omega) == []
