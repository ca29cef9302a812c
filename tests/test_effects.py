"""Tests for the influence-function estimator, cross-fitting, and baselines."""

import os
import threading
from contextlib import suppress
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    cross_fit_records,
    epsilon_ate,
    estimate_ate_difference,
    estimate_sie,
    expected_response_from_records,
    fit_per_arm_linear,
    fold_diagnostics,
    ipwe_from_propensity,
    m_term,
    propensity_predictions,
    read_records_csv,
    report_from_records,
    stochastic_propensity,
    write_influence_csv,
    write_records_csv,
)
from stochint.nuisance import FitError, OutcomeConfig, fit_outcome
from stochint.parallel import forked_map
from stochint.trees import GradientBoostedRegressor

from conftest import oracle_records

FAST_NUISANCE = NuisanceSpec(
    propensity=PropensitySpec(basis_kind="raw"),
    outcome=OutcomeSpec(config=OutcomeConfig(kind="ridge_linear")),
)


# ---------------------------------------------------------------------------
# stochastic propensity q
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(ps=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   min_size=1, max_size=8))
@example(ps=[1e-6, 0.01, 0.3, 0.5, 0.77, 0.999999])
def test_q_identity_at_delta_one_is_exact(ps):
    # q = p / (1 + (1 - 1) p), and 1 + 0 p is exactly 1
    p = np.array(ps)
    assert np.array_equal(stochastic_propensity(p, 1.0), p)
    assert all(stochastic_propensity(value, 1.0) == value for value in ps)


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
    # one treated unit with y = mu1 = 3, mu0 = 1, p_hat = 0.5: m1 = 3, m0 = 1
    records = UnitRecords(treatments=np.array([1]), outcomes=np.array([3.0]),
                          mu0=np.array([1.0]), mu1=np.array([3.0]),
                          p_hat=np.array([0.5]))
    # q = 0.5, 0 and 0.75
    for delta, phi in ((1.0, 2.0), (0.0, 1.0), (3.0, 2.5)):
        assert records.phi(delta).tolist() == [phi]


# ---------------------------------------------------------------------------
# cross-fitting
# ---------------------------------------------------------------------------


def make_cross_fit_data(n=90, seed=0):
    cfg = DgpConfig(treated_fraction_target=0.4)
    return generate_ihdp_like(n, 3, seed=seed, config=cfg)


def test_cross_fit_records_are_complete_and_ordered():
    data = make_cross_fit_data()
    records, diags = cross_fit_records(data, k=3, seed=0, nuisance=FAST_NUISANCE)
    assert records.n == 90
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


@settings(max_examples=150, deadline=None)
@given(n=st.integers(5, 40), k=st.integers(2, 5), treated=st.integers(0, 8),
       min_arm_size=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
@example(n=40, k=2, treated=6, min_arm_size=10, seed=0)  # OutcomeConfig's default
def test_cross_fit_error_names_fold(n, k, treated, min_arm_size, seed):
    rng = np.random.default_rng(seed)
    t = np.zeros(n, dtype=np.int64)
    t[rng.permutation(n)[:treated]] = 1
    data = ObservationalDataset(covariates=rng.standard_normal((n, 2)), treatments=t,
                                outcomes=rng.standard_normal(n))
    nuisance = NuisanceSpec(
        propensity=PropensitySpec(basis_kind="raw"),
        outcome=OutcomeSpec(config=OutcomeConfig(kind="ridge_linear",
                                                 min_arm_size=min_arm_size)))
    folds = split_folds(n, k, seed)
    short = [fold for fold in range(k)
             if np.bincount(t[folds.complement(fold)], minlength=2).min() < min_arm_size]
    maps = []

    def in_process(func, items):
        maps.append(items)
        return [func(item) for item in items]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochint.effects, "forked_map", in_process)
        if short:
            with pytest.raises(FitError, match=f"^fold {short[0]}: arm"):
                cross_fit_records(data, k=k, seed=seed, nuisance=nuisance)
            assert maps == []  # refused before any fit
        else:
            with suppress(FitError):  # a fit may still fail; no other error may
                cross_fit_records(data, k=k, seed=seed, nuisance=nuisance)


# The boosted outcome fits of all folds run in forked worker processes when
# more than one CPU is usable.  These pin that path to the in-process one.
BOOSTED_NUISANCE = NuisanceSpec(
    propensity=PropensitySpec(basis_kind="raw"),
    outcome=OutcomeSpec(config=OutcomeConfig(n_trees=10, max_depth=2)),
)


ORACLE_OUTCOME = NuisanceSpec(propensity=PropensitySpec(basis_kind="raw"),
                              outcome=OutcomeSpec(mode="oracle"))

def cross_fit_with_workers(monkeypatch, workers, data, k, nuisance=BOOSTED_NUISANCE):
    """cross_fit_records with the worker count forced; also counts the
    boosted fits made in this process and the forks."""
    fits_here, forks = [], []
    real_fit, real_fork = GradientBoostedRegressor.fit, os.fork

    def counting_fit(self, *args, **kwargs):
        fits_here.append(1)
        return real_fit(self, *args, **kwargs)

    def counting_fork():
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as patch:
        patch.setattr(stochint.parallel, "usable_cpus", lambda: workers)
        patch.setattr(GradientBoostedRegressor, "fit", counting_fit)
        patch.setattr(os, "fork", counting_fork)
        records, diags = cross_fit_records(data, k=k, seed=1, nuisance=nuisance)
    return records, diags, len(fits_here), len(forks)


def assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k, nuisance, fits_per_fold", [
    (2, BOOSTED_NUISANCE, 2), (3, BOOSTED_NUISANCE, 2), (5, BOOSTED_NUISANCE, 2),
    (3, FAST_NUISANCE, 0), (3, ORACLE_OUTCOME, 0),
], ids=["2", "3", "5", "ridge", "oracle"])
def test_forked_outcome_fits_match_in_process(monkeypatch, k, nuisance,
                                              fits_per_fold):
    data = make_cross_fit_data(n=150, seed=6)
    serial = cross_fit_with_workers(monkeypatch, 1, data, k, nuisance)
    forked = cross_fit_with_workers(monkeypatch, 2, data, k, nuisance)
    # (boosted fits here, forks): one boosted fit per arm and fold, all here
    # or all in the two workers, and every outcome kind forks alike
    assert serial[2:] == (fits_per_fold * k, 0)
    assert forked[2:] == (0, 2)
    for name in ("p_hat", "mu0", "mu1"):
        assert np.array_equal(getattr(serial[0], name), getattr(forked[0], name))
    assert serial[1] == forked[1]
    assert_no_child_processes()


def test_outcome_fits_stay_in_process_while_another_thread_runs(monkeypatch):
    # fork would copy no other thread into the workers
    data = make_cross_fit_data(n=150, seed=6)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        _, _, fits_here, forks = cross_fit_with_workers(monkeypatch, 2, data, 3)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert (fits_here, forks) == (2 * 3, 0)


def test_forked_propensity_matches_in_process(monkeypatch):
    # on one OpenBLAS thread, a forked worker gives the calling process's bits
    data = generate_ihdp_like(4000, 15, seed=2)

    def predict(_):
        (p,), _ = propensity_predictions(PropensitySpec(), data, data)
        return os.getpid(), p

    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda cpus=cpus: cpus)
        runs[cpus] = forked_map(predict, range(2))
    assert {pid for pid, _ in runs[1]} == {os.getpid()}
    assert os.getpid() not in {pid for pid, _ in runs[2]}
    for (_, want), (_, got) in zip(runs[1], runs[2]):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert_no_child_processes()


def test_forked_fit_error_names_first_failing_fold(monkeypatch):
    data = make_cross_fit_data(n=150, seed=6)
    k, seed = 5, 3
    folds = split_folds(data.n_units, k, seed)
    treated = [int(data.treatments[folds.complement(f)].sum()) for f in range(k)]
    # only the folds whose complement has the most treated units can fit:
    # folds 0 and 1 could, but the arm check here refuses fold 2 before any
    # outcome task starts
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


@pytest.mark.parametrize("workers", [1, 2])
def test_fit_error_names_lowest_failing_fold_not_first_task(monkeypatch, workers):
    # three folds of 20 with 2, 8 and 10 treated units: the complements of
    # folds 1 and 2 have 12 and 10 treated, under min_arm_size, and 28 and 30
    # controls, so fold 2's tasks run before fold 1's
    n, k, seed = 60, 3, 0
    folds = split_folds(n, k, seed)
    t = np.zeros(n, dtype=np.int64)
    for fold, treated in enumerate((2, 8, 10)):
        t[folds.indices(fold)[:treated]] = 1
    rng = np.random.default_rng(0)
    data = ObservationalDataset(covariates=rng.standard_normal((n, 2)),
                                treatments=t, outcomes=rng.standard_normal(n))
    spec = NuisanceSpec(
        propensity=PropensitySpec(basis_kind="raw"),
        outcome=OutcomeSpec(config=OutcomeConfig(n_trees=5, max_depth=2,
                                                 min_arm_size=13)),
    )
    controls = [int((t[folds.complement(f)] == 0).sum()) for f in range(k)]
    assert controls == [22, 28, 30]
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: workers)
    with pytest.raises(FitError, match="^fold 1: arm 1 has 12 units"):
        cross_fit_records(data, k=k, seed=seed, nuisance=spec)
    assert_no_child_processes()


def counting(monkeypatch, module, name):
    """Wrap module.name to count its calls; returns the list of calls."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_arm_size_failure_in_fold_0_comes_before_any_propensity_fit(monkeypatch):
    data = make_cross_fit_data()
    spec = NuisanceSpec(
        propensity=PropensitySpec(basis_kind="raw"),
        outcome=OutcomeSpec(config=OutcomeConfig(kind="ridge_linear",
                                                 min_arm_size=data.n_units)),
    )
    # one CPU, so a propensity fit would run where it is counted
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 1)
    fits = counting(monkeypatch, stochint.effects, "fit_propensity")
    with pytest.raises(FitError, match="^fold 0: arm "):
        cross_fit_records(data, k=3, seed=0, nuisance=spec)
    assert fits == []


def test_missing_oracle_truth_fails_before_any_propensity_fit(monkeypatch):
    data = make_cross_fit_data()
    bare = ObservationalDataset(covariates=data.covariates,
                                treatments=data.treatments, outcomes=data.outcomes)
    spec = NuisanceSpec(propensity=PropensitySpec(basis_kind="raw"),
                        outcome=OutcomeSpec(mode="oracle"))
    fits = counting(monkeypatch, stochint.effects, "fit_propensity")
    with pytest.raises(ValueError, match="oracle outcome requested but ground truth"):
        cross_fit_records(bare, k=3, seed=0, nuisance=spec)
    assert fits == []
    # a missing propensity truth fails first too: before the arm check that
    # min_arm_size would fail, and before any fork or outcome fit
    spec = NuisanceSpec(propensity=PropensitySpec(mode="oracle"),
                        outcome=OutcomeSpec(config=OutcomeConfig(min_arm_size=10**6)))
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 2)
    forks = counting(monkeypatch, os, "fork")
    outcome_fits = counting(monkeypatch, stochint.effects, "fit_outcome")
    with pytest.raises(ValueError, match="oracle propensity requested but ground truth"):
        cross_fit_records(bare, k=3, seed=0, nuisance=spec)
    assert fits == forks == outcome_fits == []


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


def test_report_aggregates_match_the_records():
    data = make_cross_fit_data(n=150, seed=7)
    report = estimate_sie(data, 1.5, k=3, seed=2, nuisance=FAST_NUISANCE)
    records, _ = cross_fit_records(data, k=3, seed=2, nuisance=FAST_NUISANCE)
    p, m1, m0 = records.arm_terms
    q = stochastic_propensity(p, 1.5)
    phi = records.phi(1.5)
    assert report.psi_hat == np.mean(phi)
    assert report.tau_ate_alg1 == np.mean(records.tau_plugin)
    assert np.array_equal(phi, q * m1 + (1.0 - q) * m0)


def test_delta_one_uses_fitted_propensity_exactly(tmp_path):
    data = make_cross_fit_data(n=120, seed=8)
    records, _ = cross_fit_records(data, k=3, seed=3, nuisance=FAST_NUISANCE)
    write_influence_csv(records, 1.0, tmp_path / "influence.csv")
    q = np.loadtxt(tmp_path / "influence.csv", delimiter=",", skiprows=1, usecols=1)
    assert np.array_equal(q, records.p_hat)


def test_estimate_is_deterministic():
    data = make_cross_fit_data(n=150, seed=9)
    a = estimate_sie(data, 2.0, k=3, seed=4, nuisance=FAST_NUISANCE)
    b = estimate_sie(data, 2.0, k=3, seed=4, nuisance=FAST_NUISANCE)
    assert a.psi_hat == b.psi_hat
    assert a.tau_sie == b.tau_sie
    records_a, _ = cross_fit_records(data, k=3, seed=4, nuisance=FAST_NUISANCE)
    records_b, _ = cross_fit_records(data, k=3, seed=4, nuisance=FAST_NUISANCE)
    assert np.array_equal(records_a.phi(2.0), records_b.phi(2.0))


def test_estimate_rejects_array_delta():
    data = make_cross_fit_data()
    with pytest.raises(ValueError, match="scalar"):
        estimate_sie(data, np.array([1.0, 2.0]), k=3, seed=0,
                     nuisance=FAST_NUISANCE)


def test_influence_csv_holds_the_records_values(tmp_path):
    data = make_cross_fit_data(n=150, seed=7)
    records, _ = cross_fit_records(data, k=3, seed=2, nuisance=FAST_NUISANCE)
    write_influence_csv(records, 1.5, tmp_path / "influence.csv")
    table = np.loadtxt(tmp_path / "influence.csv", delimiter=",", skiprows=1)
    p, m1, m0 = records.arm_terms
    assert np.array_equal(table.T, [np.arange(records.n), stochastic_propensity(p, 1.5),
                                    m1, m0, records.phi(1.5), records.tau_plugin])
    for delta, message in ((-1.0, "finite"), (np.array([1.0, 2.0]), "scalar")):
        with pytest.raises(ValueError, match=message):
            write_influence_csv(records, delta, tmp_path / "refused.csv")
    assert not (tmp_path / "refused.csv").exists()


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


def test_records_build_their_arm_terms_once_for_report_and_sweep(monkeypatch):
    records = oracle_records(30, seed=16)
    calls = counting(monkeypatch, stochint.effects, "m_term")
    report_from_records(records, 2.0, k=2, seed=0)
    for delta in (0.0, 1.0, 2.0):
        expected_response_from_records(records, delta)
    assert calls == ["m_term"] * 2


def test_sweep_matches_single_estimates():
    data = make_cross_fit_data(n=120, seed=15)
    grid = np.array([0.0, 1.0, 3.0])
    records, _ = cross_fit_records(data, 3, 5, FAST_NUISANCE)
    for d in grid:
        single = estimate_sie(data, float(d), k=3, seed=5, nuisance=FAST_NUISANCE)
        assert expected_response_from_records(records, d) == single.psi_hat


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_phi_is_equivariant_under_a_permutation_of_units(data, n, seed):
    records = oracle_records(n, seed)
    order = np.array(data.draw(st.permutations(range(n))))
    permuted = UnitRecords(**{f.name: getattr(records, f.name)[order]
                              for f in fields(records)})
    deltas = np.array(data.draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)))
    for got, want in ((permuted.phi(deltas[order]), records.phi(deltas)[order]),
                      (permuted.phi(deltas[0]), records.phi(deltas[0])[order])):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       deltas=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2))
def test_psi_hat_rises_with_delta_when_m1_exceeds_m0(n, seed, deltas):
    low, high = sorted(deltas)
    assume(high - low >= 1e-3)
    records = oracle_records(n, seed)  # noiseless, so m1 - m0 = mu1 - mu0 > 0
    assert np.mean(records.phi(low)) < np.mean(records.phi(high))


# ---------------------------------------------------------------------------
# the records file
# ---------------------------------------------------------------------------


@st.composite
def record_columns(draw):
    """(treatments, outcomes, p_hat, mu0, mu1) of 2 to 12 units, any finite floats."""
    n = draw(st.integers(2, 12))
    column = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=n, max_size=n)
    t = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return (t, *(np.array(draw(column)) for _ in range(4)))


EDGES = np.array([-0.0, 5e-324, -2.5e-320, 1e308, -1e308, 0.1])


@settings(max_examples=60, deadline=None)
@given(columns=record_columns(), seed=st.integers(0, 2**32 - 1))
@example(columns=(np.array([0, 1, 1, 0, 1, 0]), EDGES, EDGES[::-1], -EDGES,
                  np.roll(EDGES, 2)), seed=0)
def test_records_csv_round_trip_is_bit_exact(tmp_path_factory, columns, seed):
    t, y, p_hat, mu0, mu1 = columns
    n = t.shape[0]
    data = ObservationalDataset(covariates=np.zeros((n, 1)), treatments=t, outcomes=y)
    records = UnitRecords(treatments=data.treatments, outcomes=data.outcomes,
                          mu0=mu0, mu1=mu1, p_hat=p_hat)
    folds = split_folds(n, 2, seed)
    path = tmp_path_factory.getbasetemp() / "records.csv"
    write_records_csv(records, folds, path)
    back = read_records_csv(path, data, folds)
    for name in ("treatments", "outcomes", "p_hat", "mu0", "mu1"):
        want, got = getattr(records, name), getattr(back, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # bit for bit, so -0.0 stays -0.0
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_fold_diagnostics_without_fits_keep_the_fold_sizes():
    data = make_cross_fit_data()
    _, fitted = cross_fit_records(data, k=3, seed=4, nuisance=FAST_NUISANCE)
    bare = fold_diagnostics(split_folds(data.n_units, 3, 4), data.treatments)
    assert all(d.propensity_iterations is None and d.propensity_grad_norm is None
               and d.outcome_train_rmse is None for d in bare)
    assert [(d.fold, d.n_eval, d.n_train, d.n_train_treated) for d in bare] == \
        [(d.fold, d.n_eval, d.n_train, d.n_train_treated) for d in fitted]
    assert all(d.propensity_iterations > 0 for d in fitted)


@pytest.mark.parametrize("workers", [1, 2])
def test_fold_outcome_rmse_is_the_mean_of_the_arms_final_rmse(monkeypatch, workers):
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: workers)
    data = make_cross_fit_data()
    folds = split_folds(data.n_units, 3, 4)
    _, diags = cross_fit_records(data, k=3, seed=4, nuisance=BOOSTED_NUISANCE)
    cfg = BOOSTED_NUISANCE.outcome.config
    for fold, diag in enumerate(diags):
        train = data.subset(folds.complement(fold))
        final = [fit_outcome(train, cfg, arm).train_rmse_[-1] for arm in (0, 1)]
        assert diag.outcome_train_rmse == float(np.mean(final))
    _, ridge = cross_fit_records(data, k=3, seed=4, nuisance=FAST_NUISANCE)
    assert all(d.outcome_train_rmse is None for d in ridge)


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
    model0, model1 = fit_per_arm_linear(data)
    est = float(np.mean(model1.predict(data.covariates) - model0.predict(data.covariates)))
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
        model0, model1 = fit_per_arm_linear(data)
    est = float(np.mean(model1.predict(data.covariates) - model0.predict(data.covariates)))
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
    (p_hat,), _ = propensity_predictions(spec.propensity, data, data)
    got = ipwe_from_propensity(data.treatments, data.outcomes, p_hat)
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
    for clip in (0.0, 0.5, 0.7, -0.1):
        for mode, constant in (("fit", None), ("oracle", None), ("constant", 0.5)):
            with pytest.raises(ValueError) as err:
                PropensitySpec(mode=mode, clip=clip, constant=constant)
            assert str(err.value) == "clip must lie in (0, 0.5)"
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
    # the outcome learner's settings are checked whatever the kind
    for kind in ("boosted_trees", "ridge_linear"):
        for bad, message in ((dict(n_trees=0), "n_trees and max_depth must be >= 1"),
                             (dict(max_depth=0), "n_trees and max_depth must be >= 1"),
                             (dict(learning_rate=2.0), "learning_rate must lie in (0, 1]"),
                             (dict(learning_rate=0.0), "learning_rate must lie in (0, 1]")):
            with pytest.raises(ValueError) as err:
                OutcomeSpec(config=OutcomeConfig(kind=kind, **bad))
            assert str(err.value) == message


def test_oracle_mode_requires_truth():
    rng = np.random.default_rng(21)
    data = ObservationalDataset(
        covariates=rng.standard_normal((40, 2)),
        treatments=(rng.random(40) < 0.5).astype(np.int64),
        outcomes=rng.standard_normal(40),
    )
    with pytest.raises(ValueError, match="ground truth"):
        estimate_sie(data, 1.0, k=2, seed=0, nuisance=oracle_spec())
