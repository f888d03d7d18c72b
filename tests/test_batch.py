"""The batched update kernel against the single-step oracle in harxlab.filters."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harxlab import analysis
from harxlab.analysis import (
    DIVERGENCE_THRESHOLD,
    LEAK_EPS,
    _factor_groups,
    run_batch,
    run_experiment,
    run_record_csv,
    run_summary,
    simulate_seeds,
)
from harxlab.errors import DimensionMismatch
from harxlab.filters import FilterConfig, fractional_power, initial_state, step
from harxlab.plant import HarxPlant, polynomial_basis

# n = 4 with negative true weights: flms_signed leaks
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


def assert_matches_oracle(rec, cfg, s):
    """Every field of ``rec`` equals the step oracle's for (cfg, seed s), byte for byte; returns
    whether the oracle diverged."""
    state, mse, werr, imag, div = oracle(cfg, s)
    # every field exactly: the kernel does the oracle's arithmetic, NaN equal to NaN
    np.testing.assert_array_equal(rec.mse_curve, mse, strict=True)
    np.testing.assert_array_equal(rec.weight_error_curve, werr, strict=True)
    np.testing.assert_array_equal(rec.imag_curve, imag, strict=True)
    np.testing.assert_array_equal(rec.final_state.w, state.w, strict=True)
    np.testing.assert_array_equal(rec.final_state.w_prev, state.w_prev, strict=True)
    # and bit for bit, which assert_array_equal is not: it takes -0.0 == 0.0 and any NaN for any NaN
    for got, want in ((rec.mse_curve, mse), (rec.weight_error_curve, werr), (rec.imag_curve, imag),
                      (rec.final_state.w, state.w), (rec.final_state.w_prev, state.w_prev)):
        assert got.tobytes() == want.tobytes()
    assert rec.diverged == div
    assert rec.final_state.iteration == state.iteration == len(mse)
    assert rec.final_state.complex_events == state.complex_events
    assert run_summary(rec)["first_leak_iter"] == next((t for t, x in enumerate(imag) if x > LEAK_EPS), None)
    np.testing.assert_array_equal(rec.omega_opt, DATA.omega[s])
    return div


@pytest.mark.parametrize("variant,interp", KINDS)
def test_run_batch_matches_step_oracle(variant, interp):
    cfgs = configs(variant, interp)
    batch = run_batch(cfgs, DATA.X, DATA.outputs, DATA.omega)
    assert len(batch) == len(cfgs) and all(len(row) == len(SEEDS) for row in batch)
    diverged = sum(assert_matches_oracle(rec, cfg, s) for cfg, records in zip(cfgs, batch)
                   for s, rec in enumerate(records))
    assert diverged == len(SEEDS)  # exactly the DIVERGING_ETA row diverges, on every seed


def test_mixed_batch_matches_step_oracle():
    # every config of the six kinds in one call: the one time loop holds rows without a factor,
    # signed rows, two exponents and both interpretations side by side
    cfgs = [cfg for kind in KINDS for cfg in configs(*kind)]
    batch = run_batch(cfgs, DATA.X, DATA.outputs, DATA.omega)
    diverged = sum(assert_matches_oracle(rec, cfg, s) for cfg, records in zip(cfgs, batch)
                   for s, rec in enumerate(records))
    assert diverged == len(KINDS) * len(SEEDS)


def test_guard_skip_matches_step_oracle(monkeypatch):
    # one block holds a group whose guards mix 0 and 0.05 beside an all-zero-guard group of each kind:
    # the mixed group floors through its guards, each other group skips the floor
    make = lambda variant, interp="elementwise_abs", **kw: FilterConfig(  # noqa: E731
        variant=variant, eta=0.01, dim=PLANT.n, beta=0.2, power_interpretation=interp, **kw)
    mixed = [make("mflms_modulus", v=0.5), make("mflms_modulus", v=0.5, epsilon_guard=0.05)]
    zero = [make("flms_signed", v=0.75), make("mflms_modulus", v=0.75),
            make("mflms_modulus", "euclidean_norm", v=0.75), make("lms")]
    guards = []

    def spy(kind, re, guard, e, out):
        guards.append((kind, e, guard))
        return fractional_power(kind, re, guard, e, out)

    monkeypatch.setattr(analysis, "fractional_power", spy)
    monkeypatch.setattr(analysis, "_BLOCK_BYTES", 1 << 30)  # the whole run in one block
    cfgs = mixed + zero
    batch = run_batch(cfgs, DATA.X, DATA.outputs, DATA.omega)
    for cfg, records in zip(cfgs, batch):
        for s, rec in enumerate(records):
            assert not assert_matches_oracle(rec, cfg, s)
    # the guard moves the mixed group's second row away from its first
    assert not np.array_equal(batch[0][0].mse_curve, batch[1][0].mse_curve)
    floored = {(kind, e): guard is not None for kind, e, guard in guards}
    assert floored == {("elementwise_abs", 0.5): True, ("signed", 0.25): False,
                       ("elementwise_abs", 0.25): False, ("euclidean_norm", 0.25): False}
    assert len(guards) == 4 * (T - PLANT.m)


def test_batch_hands_out_only_read_only_arrays():
    # one mixed batch of the six kinds, on a copy of omega the test writes into afterwards
    omega = DATA.omega.copy()
    batch = run_batch([cfg for kind in KINDS for cfg in configs(*kind)], DATA.X, DATA.outputs, omega)
    omega += 1.0
    for records in batch:
        for s, rec in enumerate(records):
            for arr in (rec.mse_curve, rec.weight_error_curve, rec.imag_curve,
                        rec.final_state.w, rec.final_state.w_prev, rec.omega_opt):
                assert not arr.flags.writeable
            np.testing.assert_array_equal(rec.omega_opt, DATA.omega[s], strict=True)


def test_run_experiment_is_a_batch_of_one():
    # a signed row alone: its complex state rebuilt from its two real rows, byte for byte
    cfg = configs("flms_signed", "elementwise_abs")[0]
    assert_matches_oracle(run_experiment(PLANT, cfg, T, SEEDS[2]), cfg, 2)


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
# one signed row beside one real row, each run alone too
@example(([configs("flms_signed", "elementwise_abs")[0], configs("lms", "elementwise_abs")[0]], [1, 4]))
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
            for got, want in ((inside.final_state.w, alone.final_state.w),
                              (inside.final_state.w_prev, alone.final_state.w_prev)):
                np.testing.assert_array_equal(got, want, strict=True)
                assert got.tobytes() == want.tobytes()
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
        np.testing.assert_array_equal(rec.final_state.w, state.w, strict=True)
        np.testing.assert_array_equal(rec.final_state.w_prev, state.w_prev, strict=True)
        assert rec.final_state.complex_events == state.complex_events
        # the steady row beside it runs to the end
        assert not records[0][s].diverged and len(records[0][s].mse_curve) == T - PLANT.m


@pytest.mark.parametrize("signed", [False, True], ids=["real", "signed"])
def test_block_boundaries_change_nothing(monkeypatch, signed):
    # the pool's real configs, or its signed ones, under blocks of 1, 3 and 4 steps and of the whole run
    cfgs = [cfg for cfg in POOL if (cfg.variant == "flms_signed") == signed]
    default = run_batch(cfgs, DATA.X, DATA.outputs, DATA.omega)
    stops = [rec.final_state.iteration - 1 for records in default for rec in records if rec.diverged]
    step_bytes = len(cfgs) * len(SEEDS) * PLANT.n * (16 if signed else 8)  # one step; a signed row is two rows
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


def scan_summary(rec):
    """A record's summary by a direct scan of its curves, the reference for run_batch's per-block reductions."""
    hot = rec.imag_curve > LEAK_EPS
    leaks = int(np.count_nonzero(hot))
    return {
        "iterations": int(hot.size),
        "diverged": bool(rec.diverged),
        "terminal_mse": float(rec.mse_curve[-1]),
        "terminal_weight_error": float(rec.weight_error_curve[-1]),
        "complex_events": int(rec.final_state.complex_events),
        "max_imag": float(rec.imag_curve.max()),
        "first_leak_iter": int(hot.argmax()) if leaks else None,
        "leak_fraction": leaks / hot.size,
    }


# DATA plus two seeds whose desired output turns NaN at step 41 and +inf at step 60
NAN_STEP, INF_STEP = 41, 60
BROKEN_OUTPUTS = np.concatenate([DATA.outputs, DATA.outputs[:2]])
BROKEN_OUTPUTS[-2, NAN_STEP], BROKEN_OUTPUTS[-1, INF_STEP] = np.nan, np.inf
BROKEN = (np.concatenate([DATA.X, DATA.X[:2]]), BROKEN_OUTPUTS, np.concatenate([DATA.omega, DATA.omega[:2]]))


@pytest.mark.parametrize("steps", [None, 1, 3, 4, T])
def test_summaries_equal_a_scan_of_the_curves(monkeypatch, steps):
    # the six kinds in one batch, on rows that run to the end, pass 1e12, turn NaN or turn inf, in
    # blocks of the default size and of 1, 3, 4 and all steps
    cfgs = [cfg for kind in KINDS for cfg in configs(*kind)]
    rows = len(cfgs) * len(BROKEN[0])
    signed_rows = sum(cfg.variant == "flms_signed" for cfg in cfgs) * len(BROKEN[0])
    if steps is not None:
        monkeypatch.setattr(analysis, "_BLOCK_BYTES", steps * (rows + signed_rows) * PLANT.n * 8)
    batch = run_batch(cfgs, *BROKEN)
    summaries = [run_summary(rec) for records in batch for rec in records]
    for rec, summary in zip((rec for records in batch for rec in records), summaries):
        # repr tells NaN, -0.0, int and bool apart, as the JSON of a summary does
        assert repr(summary) == repr(scan_summary(rec))
    assert repr(summaries) == repr([s for cells in run_batch(cfgs, *BROKEN, curves=False) for s in cells])
    stops = [s["iterations"] - 1 for s in summaries if s["diverged"]]
    if steps in (3, 4):  # some row stops on the first step of a block, and some row on the last
        assert any(t % steps == 0 for t in stops) and any(t % steps == steps - 1 for t in stops)
    assert {NAN_STEP, INF_STEP} <= set(stops)
    assert any(np.isnan(s["terminal_mse"]) and np.isnan(s["max_imag"]) for s in summaries)
    assert any(s["terminal_mse"] == np.inf for s in summaries)


def test_curve_free_batch_builds_no_record(monkeypatch):
    made = []
    for name in ("RunRecord", "FilterState"):
        cls = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *a, _cls=cls, **kw: made.append(_cls) or _cls(*a, **kw))
    cfgs = [cfg for kind in KINDS for cfg in configs(*kind)]
    cells = analysis.sweep_cells(cfgs, DATA)
    assert made == []
    records = run_batch(cfgs, DATA.X, DATA.outputs, DATA.omega)  # one of each per row, seen by the count
    assert len(made) == 2 * len(cfgs) * len(SEEDS)
    expected = [analysis.seed_aggregate([run_summary(rec) for rec in runs]) for runs in records]
    assert repr(cells) == repr(expected)


@pytest.mark.parametrize("variant,interp", [k for k in KINDS if k[0] != "flms_signed"])
def test_real_rows_stay_real(variant, interp):
    for records in run_batch(configs(variant, interp), DATA.X, DATA.outputs, DATA.omega):
        for rec in records:
            assert np.all(rec.imag_curve == 0.0)
            assert rec.final_state.complex_events == 0
            assert np.all(rec.final_state.w.imag == 0.0) and np.all(rec.final_state.w_prev.imag == 0.0)


def test_power_takes_each_rows_exponent_as_a_scalar():
    # np.power has scalar-exponent fast paths (sqrt for 0.5) that an exponent
    # array skips; every row of a group must get what it gets computed alone
    base = np.random.default_rng(3).standard_normal((3, 4, 9))
    exponent = np.array([0.5, 0.25, 0.5])
    guard = np.zeros((3, 4, 1))
    for interp in ("elementwise_abs", "euclidean_norm"):
        cfgs = [FilterConfig(variant="mflms_modulus", eta=0.01, dim=9, v=1.0 - e, power_interpretation=interp)
                for e in exponent]
        got = np.empty((3, 4, 9 if interp == "elementwise_abs" else 1))
        groups, group_of = _factor_groups(cfgs)
        for g, (kind, e) in enumerate(groups):
            rows = group_of == g
            got[rows] = fractional_power(kind, base[rows], guard[rows], e)
        for c, e in enumerate(exponent):
            for r in range(4):
                alone = fractional_power(interp, base[c, r], guard[c, r], float(e))
                assert np.array_equal(got[c, r], alone), (interp, c, r)
            if interp == "elementwise_abs":  # np.power with the scalar exponent itself
                np.testing.assert_array_equal(got[c], np.power(np.abs(base[c]), float(e)))
        assert groups == [(interp, 0.25), (interp, 0.5)] and group_of.tolist() == [1, 0, 1]
    base = np.abs(base)
    assert np.any(np.power(base, 0.5) != np.power(base, np.full((3, 1, 1), 0.5)))  # the fast path exists


def test_run_batch_rejects_bad_shapes():
    lms = FilterConfig(variant="lms", eta=0.01, dim=PLANT.n)
    with pytest.raises(DimensionMismatch):
        run_batch([FilterConfig(variant="lms", eta=0.01, dim=3)], DATA.X, DATA.outputs, DATA.omega)
    with pytest.raises(DimensionMismatch):
        run_batch([lms], DATA.X, DATA.outputs[:, :-1], DATA.omega)
    for S, N in ((0, T - PLANT.m), (len(SEEDS), 0)):  # no seeds, no samples
        with pytest.raises(DimensionMismatch):
            run_batch([lms], DATA.X[:S, :N], DATA.outputs[:S, :N], DATA.omega[:S])
    assert run_batch([], DATA.X, DATA.outputs, DATA.omega) == []
