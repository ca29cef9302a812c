"""Tests for the influence-function estimator, cross-fitting, and baselines."""

import os
import threading

import numpy as np
import pytest

import stochint.effects
import stochint.parallel
from stochint.data import (
    DgpConfig,
    ObservationalDataset,
    generate_ihdp_like,
    split_folds,
)
from stochint.effects import (
    NuisanceSpec,
    OutcomeSpec,
    PropensitySpec,
    UnitRecords,
    baseline_ipwe,
    baseline_ols,
    cross_fit_records,
    epsilon_ate,
    estimate_ate_difference,
    estimate_sie,
    expected_response_from_records,
    fit_per_arm_linear,
    influence,
    ipwe_from_propensity,
    m_term,
    report_from_records,
    stochastic_propensity,
    sweep_expected_outcome,
)
from stochint.nuisance import FitError, OutcomeConfig, model_to_dict
from stochint.trees import GradientBoostedRegressor

from conftest import oracle_records

FAST_NUISANCE = NuisanceSpec(
    propensity=PropensitySpec(basis_kind="raw"),
    outcome=OutcomeSpec(config=OutcomeConfig(kind="ridge_linear")),
)


# ---------------------------------------------------------------------------
# stochastic propensity q
# ---------------------------------------------------------------------------


def test_q_identity_at_delta_one_is_exact():
    p = np.array([1e-6, 0.01, 0.3, 0.5, 0.77, 0.999999])
    q = stochastic_propensity(p, 1.0)
    assert np.array_equal(q, p)
    assert stochastic_propensity(0.3, 1.0) == 0.3


def test_q_zero_delta_gives_zero():
    assert stochastic_propensity(0.7, 0.0) == 0.0
    q = stochastic_propensity(np.array([0.2, 0.9]), 0.0)
    assert np.array_equal(q, np.zeros(2))


def test_q_worked_value():
    assert abs(stochastic_propensity(0.5, 1.5) - 0.6) <= 1e-12
    assert abs(stochastic_propensity(0.25, 2.0) - 0.4) <= 1e-12


def test_q_monotone_in_delta():
    p_grid = np.linspace(0.01, 0.99, 25)
    deltas = np.linspace(0.0, 5.0, 100)
    for p in p_grid:
        q = stochastic_propensity(float(p), 0.0)
        values = [stochastic_propensity(float(p), float(d)) for d in deltas]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0


def test_q_saturates_for_large_delta():
    assert stochastic_propensity(0.5, 1e12) > 1.0 - 1e-11


def test_q_scalar_in_scalar_out():
    out = stochastic_propensity(0.4, 2.0)
    assert isinstance(out, float)


def test_q_broadcasts_per_unit_deltas():
    p = np.array([0.2, 0.5, 0.8])
    d = np.array([0.0, 1.0, 3.0])
    q = stochastic_propensity(p, d)
    expected = np.array([0.0, 0.5, (3 * 0.8) / (3 * 0.8 + 0.2)])
    assert np.allclose(q, expected, atol=1e-15)


def test_q_input_validation():
    for bad_p in (0.0, 1.0, -0.2, 1.3, np.nan):
        with pytest.raises(ValueError):
            stochastic_propensity(bad_p, 1.0)
    for bad_d in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            stochastic_propensity(0.5, bad_d)


# ---------------------------------------------------------------------------
# influence pieces
# ---------------------------------------------------------------------------


def test_m_term_worked_values():
    # treated unit, arm 1: (2 - 1) / 0.5 + 1 = 3
    assert m_term(1, 2.0, 1.0, 0.5, arm=1) == 3.0
    # control unit, arm 0: (2 - 1) / 0.75 + 1 = 7/3
    assert abs(m_term(0, 2.0, 1.0, 0.25, arm=0) - 7.0 / 3.0) <= 1e-12


def test_m_term_indicator_off_returns_plugin():
    assert m_term(0, 99.0, 4.0, 0.5, arm=1) == 4.0
    assert m_term(1, 99.0, -2.0, 0.5, arm=0) == -2.0


def test_m_term_array_matches_scalar():
    rng = np.random.default_rng(0)
    t = (rng.random(50) < 0.5).astype(int)
    y = rng.standard_normal(50)
    mu = rng.standard_normal(50)
    p = rng.uniform(0.1, 0.9, 50)
    for arm in (0, 1):
        got = m_term(t, y, mu, p, arm)
        want = np.array([m_term(int(t[i]), float(y[i]), float(mu[i]),
                                float(p[i]), arm) for i in range(50)])
        assert np.allclose(got, want, atol=1e-15)


def test_m_term_rejects_bad_arm():
    with pytest.raises(ValueError, match="arm"):
        m_term(1, 1.0, 1.0, 0.5, arm=2)


def test_influence_worked_value():
    assert influence(0.5, 3.0, 1.0) == 2.0
    assert influence(0.0, 3.0, 1.0) == 1.0
    assert influence(1.0, 3.0, 1.0) == 3.0


# ---------------------------------------------------------------------------
# cross-fitting
# ---------------------------------------------------------------------------


def make_cross_fit_data(n=90, seed=0):
    cfg = DgpConfig(treated_fraction_target=0.4)
    return generate_ihdp_like(n, 3, seed=seed, config=cfg)


def test_cross_fit_records_are_complete_and_ordered():
    data = make_cross_fit_data()
    records, diags = cross_fit_records(data, k=3, seed=0, nuisance=FAST_NUISANCE)
    assert np.array_equal(records.unit_index, np.arange(90))
    for arr in (records.p_hat, records.mu0, records.mu1):
        assert np.isfinite(arr).all()
    assert records.p_hat.min() >= 0.01 and records.p_hat.max() <= 0.99
    assert len(diags) == 3
    assert sum(d.n_eval for d in diags) == 90


def test_cross_fit_is_deterministic():
    data = make_cross_fit_data()
    a, _ = cross_fit_records(data, k=3, seed=1, nuisance=FAST_NUISANCE)
    b, _ = cross_fit_records(data, k=3, seed=1, nuisance=FAST_NUISANCE)
    assert np.array_equal(a.p_hat, b.p_hat)
    assert np.array_equal(a.mu0, b.mu0)
    assert np.array_equal(a.mu1, b.mu1)


def test_cross_fit_held_out_predictions_ignore_own_fold_outcomes():
    # poisoning the outcomes of one fold must not move that fold's own
    # held-out predictions, because its models train on the complement
    from stochint.data import split_folds

    data = make_cross_fit_data(n=120, seed=2)
    k, seed = 3, 5
    clean, _ = cross_fit_records(data, k=k, seed=seed, nuisance=FAST_NUISANCE)
    folds = split_folds(120, k, seed)
    target = folds.indices(1)
    y_poisoned = data.outcomes.copy()
    y_poisoned[target] += 1e6
    poisoned_data = ObservationalDataset(
        covariates=data.covariates,
        treatments=data.treatments,
        outcomes=y_poisoned,
    )
    poisoned, _ = cross_fit_records(poisoned_data, k=k, seed=seed,
                                    nuisance=FAST_NUISANCE)
    assert np.array_equal(poisoned.mu0[target], clean.mu0[target])
    assert np.array_equal(poisoned.mu1[target], clean.mu1[target])
    assert np.array_equal(poisoned.p_hat, clean.p_hat)
    others = folds.complement(1)
    assert not np.array_equal(poisoned.mu0[others], clean.mu0[others])


def test_cross_fit_error_names_fold():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 2))
    t = np.zeros(40, dtype=np.int64)
    t[:6] = 1  # every training complement has at most 6 treated units
    data = ObservationalDataset(covariates=x, treatments=t,
                                outcomes=rng.standard_normal(40))
    with pytest.raises(FitError, match="fold 0"):
        cross_fit_records(data, k=2, seed=0)


def test_cross_fit_collected_models_reproduce_records():
    data = make_cross_fit_data(n=100, seed=4)
    collected = []
    records, _ = cross_fit_records(data, k=4, seed=2, nuisance=FAST_NUISANCE,
                                   collect_models=collected)
    assert len(collected) == 4
    rebuilt, _ = cross_fit_records(data, k=4, seed=2, fold_models=collected)
    assert np.array_equal(rebuilt.p_hat, records.p_hat)
    assert np.array_equal(rebuilt.mu0, records.mu0)
    assert np.array_equal(rebuilt.mu1, records.mu1)


def test_cross_fit_from_models_checks_count():
    data = make_cross_fit_data()
    with pytest.raises(ValueError, match="fold model pairs"):
        cross_fit_records(data, k=3, seed=0, fold_models=[None])


# The boosted outcome fits of all folds run in forked worker processes when
# more than one CPU is usable.  These pin that path to the in-process one.
BOOSTED_NUISANCE = NuisanceSpec(
    propensity=PropensitySpec(basis_kind="raw"),
    outcome=OutcomeSpec(config=OutcomeConfig(n_trees=10, max_depth=2)),
)


def cross_fit_with_workers(monkeypatch, workers, data, k, collect):
    """cross_fit_records with the worker count forced; also counts the
    boosted fits made in this process."""
    fits_here = []
    real_fit = GradientBoostedRegressor.fit

    def counting_fit(self, *args, **kwargs):
        fits_here.append(1)
        return real_fit(self, *args, **kwargs)

    models = [] if collect else None
    with monkeypatch.context() as patch:
        patch.setattr(stochint.parallel, "usable_cpus", lambda: workers)
        patch.setattr(GradientBoostedRegressor, "fit", counting_fit)
        records, diags = cross_fit_records(data, k=k, seed=1,
                                           nuisance=BOOSTED_NUISANCE,
                                           collect_models=models)
    return records, diags, models, len(fits_here)


def assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("collect", [False, True], ids=["records", "collect-models"])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_forked_outcome_fits_match_in_process(monkeypatch, k, collect):
    data = make_cross_fit_data(n=150, seed=6)
    serial = cross_fit_with_workers(monkeypatch, 1, data, k, collect)
    forked = cross_fit_with_workers(monkeypatch, 2, data, k, collect)
    assert serial[3] == 2 * k  # one boosted fit per arm and fold, here
    assert forked[3] == 0  # all of them in the workers
    for name in ("p_hat", "mu0", "mu1"):
        assert np.array_equal(getattr(serial[0], name), getattr(forked[0], name))
    assert serial[1] == forked[1]
    if collect:
        assert len(serial[2]) == len(forked[2]) == k
        for serial_pair, forked_pair in zip(serial[2], forked[2]):
            assert ([model_to_dict(m) for m in serial_pair]
                    == [model_to_dict(m) for m in forked_pair])
    assert_no_child_processes()


def test_outcome_fits_stay_in_process_while_another_thread_runs(monkeypatch):
    # fork would copy no other thread into the workers
    data = make_cross_fit_data(n=150, seed=6)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        _, _, _, fits_here = cross_fit_with_workers(monkeypatch, 2, data, 3, False)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert fits_here == 2 * 3


def test_forked_fit_error_names_first_failing_fold(monkeypatch):
    data = make_cross_fit_data(n=150, seed=6)
    k, seed = 5, 3
    folds = split_folds(data.n_units, k, seed)
    treated = [int(data.treatments[folds.complement(f)].sum()) for f in range(k)]
    # only the folds whose complement has the most treated units can fit:
    # folds 0 and 1 fit, one in each worker, then folds 2 and 3 fail
    floor = max(treated)
    failing = [f for f in range(k) if treated[f] < floor]
    assert failing == [2, 3]
    spec = NuisanceSpec(
        propensity=PropensitySpec(basis_kind="raw"),
        outcome=OutcomeSpec(config=OutcomeConfig(n_trees=5, max_depth=2,
                                                 min_arm_size=floor)),
    )
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 2)
    with pytest.raises(FitError, match=f"^fold {failing[0]}: arm 1 has"):
        cross_fit_records(data, k=k, seed=seed, nuisance=spec)
    assert_no_child_processes()


def test_worker_that_dies_is_reported_and_reaped(monkeypatch):
    test_process = os.getpid()

    def die(*args, **kwargs):
        if os.getpid() == test_process:
            pytest.fail("the outcome fit ran in the test process")
        os._exit(3)

    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(stochint.effects, "fit_outcome", die)
    with pytest.raises(RuntimeError, match="ended without a result"):
        cross_fit_records(make_cross_fit_data(n=150, seed=6), k=3, seed=1,
                          nuisance=BOOSTED_NUISANCE)
    assert_no_child_processes()


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def oracle_spec():
    return NuisanceSpec(
        propensity=PropensitySpec(mode="oracle"),
        outcome=OutcomeSpec(mode="oracle"),
    )


def test_oracle_estimate_matches_brute_force():
    cfg = DgpConfig(noise_scale=0.0)
    data = generate_ihdp_like(400, 4, seed=5, config=cfg)
    p = data.truth.true_propensity
    for delta in (0.0, 0.5, 1.0, 2.0, 5.0):
        report = estimate_sie(data, delta, k=4, seed=0, nuisance=oracle_spec())
        q = delta * p / (1.0 + (delta - 1.0) * p)
        brute = np.mean(q * data.truth.mu1 + (1.0 - q) * data.truth.mu0)
        assert abs(report.psi_hat - brute) <= 1e-12


def test_report_identity_psi_equals_tau_plus_mean_outcome():
    data = make_cross_fit_data(n=150, seed=6)
    report = estimate_sie(data, 2.0, k=3, seed=1, nuisance=FAST_NUISANCE)
    assert abs(report.psi_hat - (report.tau_sie + report.mean_outcome)) <= 1e-12


def test_report_aggregates_match_influence_table():
    data = make_cross_fit_data(n=150, seed=7)
    report = estimate_sie(data, 1.5, k=3, seed=2, nuisance=FAST_NUISANCE)
    table = report.influence
    assert report.psi_hat == np.mean(table.phi)
    assert report.tau_ate_alg1 == np.mean(table.tau_plugin)
    assert np.array_equal(table.phi,
                          table.q * table.m1 + (1.0 - table.q) * table.m0)


def test_delta_one_uses_fitted_propensity_exactly():
    data = make_cross_fit_data(n=120, seed=8)
    report = estimate_sie(data, 1.0, k=3, seed=3, nuisance=FAST_NUISANCE)
    records, _ = cross_fit_records(data, k=3, seed=3, nuisance=FAST_NUISANCE)
    assert np.array_equal(report.influence.q, records.p_hat)


def test_estimate_is_deterministic():
    data = make_cross_fit_data(n=150, seed=9)
    a = estimate_sie(data, 2.0, k=3, seed=4, nuisance=FAST_NUISANCE)
    b = estimate_sie(data, 2.0, k=3, seed=4, nuisance=FAST_NUISANCE)
    assert a.psi_hat == b.psi_hat
    assert a.tau_sie == b.tau_sie
    assert np.array_equal(a.influence.phi, b.influence.phi)


def test_estimate_rejects_array_delta():
    data = make_cross_fit_data()
    with pytest.raises(ValueError, match="scalar"):
        estimate_sie(data, np.array([1.0, 2.0]), k=3, seed=0,
                     nuisance=FAST_NUISANCE)


def test_residual_terms_are_mean_zero_under_true_nuisances():
    # with oracle mu and the true propensity, m_arm - mu_arm has mean zero
    # up to sampling noise; check against its own measured standard error
    data = generate_ihdp_like(20000, 3, seed=10)
    records, _ = cross_fit_records(data, k=2, seed=0, nuisance=oracle_spec())
    for mu, arm in ((records.mu1, 1), (records.mu0, 0)):
        m = m_term(records.treatments, records.outcomes, mu, records.p_hat, arm)
        dev = m - mu
        se = dev.std() / np.sqrt(records.n)
        assert abs(dev.mean()) <= 4.0 * se


def test_ate_difference_consistent_on_linear_surface():
    cfg = DgpConfig(nonlinearity=0.0)
    data = generate_ihdp_like(3000, 4, seed=11, config=cfg)
    est = estimate_ate_difference(data, k=5, seed=0, nuisance=FAST_NUISANCE)
    assert epsilon_ate(est, data.truth.ate) < 0.05


# ---------------------------------------------------------------------------
# per-unit response and sweeps
# ---------------------------------------------------------------------------


def test_expected_response_matches_scalar_report():
    records = oracle_records(80, seed=12)
    report = report_from_records(records, 2.5, k=2, seed=0)
    value = expected_response_from_records(records, np.full(80, 2.5))
    assert value == report.psi_hat


def test_expected_response_monotone_in_single_unit_delta():
    records = oracle_records(40, seed=13)  # mu1 > mu0 for every unit
    base = np.ones(40)
    grid = [0.0, 0.5, 1.0, 2.0, 6.0]
    values = []
    for d in grid:
        deltas = base.copy()
        deltas[7] = d
        values.append(expected_response_from_records(records, deltas))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_expected_response_length_check():
    records = oracle_records(10, seed=14)
    with pytest.raises(ValueError, match="per-unit deltas"):
        expected_response_from_records(records, np.ones(9))


def test_sweep_matches_single_estimates():
    data = make_cross_fit_data(n=120, seed=15)
    grid = np.array([0.0, 1.0, 3.0])
    swept = sweep_expected_outcome(data, grid, k=3, seed=5, nuisance=FAST_NUISANCE)
    for i, d in enumerate(grid):
        single = estimate_sie(data, float(d), k=3, seed=5, nuisance=FAST_NUISANCE)
        assert swept[i] == single.psi_hat


def test_sweep_rejects_bad_grid():
    data = make_cross_fit_data()
    with pytest.raises(ValueError, match="1-d"):
        sweep_expected_outcome(data, np.ones((2, 2)), k=3, seed=0,
                               nuisance=FAST_NUISANCE)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def linear_arms_dataset(n=200, seed=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    t = (rng.random(n) < 0.5).astype(np.int64)
    y = 1.0 + 2.0 * x[:, 0] - x[:, 1] + t * (3.0 + 0.5 * x[:, 0])
    return ObservationalDataset(covariates=x, treatments=t, outcomes=y)


def test_ols_recovers_exact_linear_arms():
    data = linear_arms_dataset()
    est = baseline_ols(data)
    truth = float(np.mean(3.0 + 0.5 * data.covariates[:, 0]))
    assert abs(est - truth) <= 1e-8


def test_ols_warns_on_rank_deficiency():
    rng = np.random.default_rng(17)
    col = rng.standard_normal(60)
    x = np.column_stack([col, col])  # exactly collinear
    t = (rng.random(60) < 0.5).astype(np.int64)
    y = col + t
    data = ObservationalDataset(covariates=x, treatments=t, outcomes=y)
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        est = baseline_ols(data)
    assert np.isfinite(est)


def test_per_arm_linear_needs_both_arms():
    rng = np.random.default_rng(18)
    data = ObservationalDataset(
        covariates=rng.standard_normal((20, 2)),
        treatments=np.ones(20, dtype=np.int64),
        outcomes=np.zeros(20),
    )
    with pytest.raises(FitError, match="both arms"):
        fit_per_arm_linear(data)


def test_ipwe_known_constant_propensity():
    rng = np.random.default_rng(19)
    t = (rng.random(100) < 0.5).astype(np.int64)
    y = rng.standard_normal(100)
    p = np.full(100, 0.5)
    got = ipwe_from_propensity(t, y, p)
    want = float(np.mean(2.0 * t * y) - np.mean(2.0 * (1 - t) * y))
    assert abs(got - want) <= 1e-12


def test_ipwe_rejects_boundary_probabilities():
    with pytest.raises(ValueError):
        ipwe_from_propensity(np.array([0, 1]), np.array([1.0, 2.0]),
                             np.array([0.0, 0.5]))


def test_baseline_ipwe_constant_mode_matches_formula():
    data = make_cross_fit_data(n=100, seed=20)
    spec = NuisanceSpec(propensity=PropensitySpec(mode="constant", constant=0.45))
    got = baseline_ipwe(data, nuisance=spec)
    t = data.treatments.astype(float)
    y = data.outcomes
    want = float(np.mean(t * y / 0.45) - np.mean((1 - t) * y / 0.55))
    assert abs(got - want) <= 1e-12


def test_epsilon_ate():
    assert epsilon_ate(3.0, 5.0) == 2.0
    assert epsilon_ate(-1.0, -1.0) == 0.0
    with pytest.raises(ValueError):
        epsilon_ate(np.nan, 1.0)


# ---------------------------------------------------------------------------
# nuisance spec validation
# ---------------------------------------------------------------------------


def test_propensity_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        PropensitySpec(mode="guess")
    with pytest.raises(ValueError, match="basis"):
        PropensitySpec(basis_kind="cubic")
    with pytest.raises(ValueError, match="probability"):
        PropensitySpec(mode="constant")
    with pytest.raises(ValueError, match="probability"):
        PropensitySpec(mode="constant", constant=1.5)


def test_outcome_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        OutcomeSpec(mode="guess")


def test_oracle_mode_requires_truth():
    rng = np.random.default_rng(21)
    data = ObservationalDataset(
        covariates=rng.standard_normal((40, 2)),
        treatments=(rng.random(40) < 0.5).astype(np.int64),
        outcomes=rng.standard_normal(40),
    )
    with pytest.raises(ValueError, match="ground truth"):
        estimate_sie(data, 1.0, k=2, seed=0, nuisance=oracle_spec())


def test_records_without_propensity_refuse_influence():
    records = UnitRecords(
        unit_index=np.arange(3),
        treatments=np.array([0, 1, 0]),
        outcomes=np.zeros(3),
        mu0=np.zeros(3),
        mu1=np.ones(3),
        p_hat=None,
    )
    with pytest.raises(ValueError, match="without propensity"):
        expected_response_from_records(records, np.ones(3))
