"""Tests for basis expansions, the propensity solver, and outcome models."""

import numpy as np
import pytest

from stochint.data import ObservationalDataset
from stochint.nuisance import (
    BasisExpansion,
    FitError,
    OutcomeConfig,
    PropensityModel,
    SolverConfig,
    fit_outcome,
    fit_propensity,
    load_model,
    make_basis,
    make_rbf_basis,
    model_from_dict,
    model_to_dict,
    propensity_gradient,
    save_model,
    sigmoid,
)


def logistic_dataset(n, beta, seed, clip_noise=0.0):
    """Draw t ~ Bernoulli(sigmoid(beta0 + x @ beta[1:]))."""
    rng = np.random.default_rng(seed)
    d = len(beta) - 1
    x = rng.standard_normal((n, d))
    p = sigmoid(beta[0] + x @ np.asarray(beta[1:]))
    t = (rng.random(n) < p).astype(np.int64)
    y = rng.standard_normal(n)
    return ObservationalDataset(covariates=x, treatments=t, outcomes=y)


# ---------------------------------------------------------------------------
# basis expansions
# ---------------------------------------------------------------------------


def test_raw_basis_prepends_intercept():
    basis = BasisExpansion(kind="raw", n_inputs=2)
    out = basis.expand(np.array([[1.0, 2.0]]))
    assert np.array_equal(out, np.array([[1.0, 1.0, 2.0]]))
    assert basis.output_dim == 3


def test_polynomial2_basis_values_and_dim():
    basis = BasisExpansion(kind="polynomial2", n_inputs=2)
    out = basis.expand(np.array([[2.0, 3.0]]))
    assert np.array_equal(out, np.array([[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]]))
    assert basis.output_dim == 6
    assert BasisExpansion(kind="polynomial2", n_inputs=5).output_dim == 1 + 5 + 15


def test_rbf_basis_values():
    centers = np.array([[0.0, 0.0], [1.0, 1.0]])
    basis = BasisExpansion(kind="rbf", n_inputs=2, centers=centers, scale=1.0)
    out = basis.expand(np.array([[0.0, 0.0]]))
    expected = np.array([[1.0, 1.0, np.exp(-1.0)]])
    assert np.allclose(out, expected, atol=1e-15)
    assert basis.output_dim == 3


def test_basis_rejects_bad_input():
    basis = BasisExpansion(kind="raw", n_inputs=2)
    with pytest.raises(ValueError, match="expected"):
        basis.expand(np.zeros((3, 5)))
    with pytest.raises(ValueError, match="finite"):
        basis.expand(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="unknown basis"):
        BasisExpansion(kind="cubic", n_inputs=2)
    with pytest.raises(ValueError, match="centers"):
        BasisExpansion(kind="rbf", n_inputs=2)


def test_wide_polynomial2_basis_fails_before_expanding(monkeypatch):
    # 1 + d + d (d + 1) / 2 columns: 1,953 at d = 61, 2,016 at d = 62
    assert BasisExpansion(kind="polynomial2", n_inputs=61).output_dim == 1953

    def expand(self, x):
        pytest.fail("the wide basis was expanded")

    monkeypatch.setattr(BasisExpansion, "expand", expand)
    data = logistic_dataset(40, [0.0] + [0.1] * 62, seed=0)
    with pytest.raises(ValueError, match="62 covariates has 2016 columns, "
                                         "more than 2000; use the raw or rbf basis"):
        fit_propensity(data, make_basis("polynomial2", data.covariates))
    assert make_basis("raw", data.covariates).output_dim == 63


def test_make_rbf_basis_is_deterministic():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 3))
    a = make_rbf_basis(x, n_centers=8, seed=5)
    b = make_rbf_basis(x, n_centers=8, seed=5)
    assert np.array_equal(a.centers, b.centers)
    assert a.scale == b.scale
    assert a.centers.shape == (8, 3)
    assert a.scale > 0


def test_make_basis_dispatch():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 2))
    assert make_basis("raw", x).kind == "raw"
    assert make_basis("polynomial2", x).kind == "polynomial2"
    rbf = make_basis("rbf", x, n_centers=6, seed=0)
    assert rbf.kind == "rbf"
    assert rbf.output_dim == 7


# ---------------------------------------------------------------------------
# propensity solver
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    basis = BasisExpansion(kind="polynomial2", n_inputs=3)
    g = basis.expand(rng.standard_normal((40, 3)))
    t = (rng.random(40) < 0.5).astype(float)
    beta = rng.standard_normal(basis.output_dim) * 0.3
    lam = 1e-4

    def nll(b):
        z = g @ b
        return float(np.mean(np.logaddexp(0.0, z) - t * z) + 0.5 * lam * b @ b)

    grad = propensity_gradient(g, t, beta, lam)
    h = 1e-6
    for j in range(basis.output_dim):
        e = np.zeros_like(beta)
        e[j] = h
        fd = (nll(beta + e) - nll(beta - e)) / (2.0 * h)
        assert abs(grad[j] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_propensity_recovers_logistic_coefficients():
    beta_true = np.array([0.5, 1.0, -0.5])
    data = logistic_dataset(20000, beta_true, seed=3)
    basis = BasisExpansion(kind="raw", n_inputs=2)
    model = fit_propensity(data, basis)
    rel = np.abs(model.beta - beta_true) / np.abs(beta_true)
    assert rel.max() < 0.10
    assert model.grad_norm <= 1e-8


def test_propensity_near_half_when_treatment_is_independent():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5000, 3))
    t = (rng.random(5000) < 0.5).astype(np.int64)
    data = ObservationalDataset(covariates=x, treatments=t,
                                outcomes=np.zeros(5000))
    model = fit_propensity(data, BasisExpansion(kind="raw", n_inputs=3))
    p = model.predict(x)
    assert np.all(np.abs(p - 0.5) < 0.05)


def test_propensity_separable_data_stays_finite_and_clipped():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 2))
    t = (x[:, 0] > 0).astype(np.int64)
    data = ObservationalDataset(covariates=x, treatments=t,
                                outcomes=np.zeros(300))
    model = fit_propensity(data, BasisExpansion(kind="raw", n_inputs=2))
    assert np.isfinite(model.beta).all()
    p = model.predict(x)
    assert p.min() >= 0.01 and p.max() <= 0.99


def test_propensity_predictions_respect_custom_clip():
    beta_true = np.array([0.0, 4.0])
    data = logistic_dataset(2000, beta_true, seed=6)
    basis = BasisExpansion(kind="raw", n_inputs=1)
    model = fit_propensity(data, basis, clip=0.05)
    p = model.predict(data.covariates)
    assert p.min() >= 0.05 and p.max() <= 0.95
    # strong signal actually reaches the clip on both sides
    assert p.min() == 0.05 and p.max() == 0.95


def test_propensity_single_arm_raises():
    x = np.random.default_rng(7).standard_normal((30, 2))
    data = ObservationalDataset(covariates=x,
                                treatments=np.ones(30, dtype=np.int64),
                                outcomes=np.zeros(30))
    with pytest.raises(FitError, match="both treated and control"):
        fit_propensity(data, BasisExpansion(kind="raw", n_inputs=2))


def test_propensity_reports_non_convergence():
    data = logistic_dataset(500, np.array([0.2, 1.5]), seed=8)
    basis = BasisExpansion(kind="raw", n_inputs=1)
    with pytest.raises(FitError, match="did not converge"):
        fit_propensity(data, basis, solver=SolverConfig(max_iter=1))


def test_propensity_fit_is_deterministic():
    data = logistic_dataset(1000, np.array([0.1, 0.8, -0.3]), seed=9)
    basis = BasisExpansion(kind="polynomial2", n_inputs=2)
    a = fit_propensity(data, basis)
    b = fit_propensity(data, basis)
    assert np.array_equal(a.beta, b.beta)


def test_propensity_model_validation():
    basis = BasisExpansion(kind="raw", n_inputs=2)
    with pytest.raises(ValueError, match="clip"):
        PropensityModel(beta=np.zeros(3), basis=basis, clip=0.6)
    with pytest.raises(ValueError, match="beta length"):
        PropensityModel(beta=np.zeros(5), basis=basis)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(l2_penalty=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


# ---------------------------------------------------------------------------
# outcome models
# ---------------------------------------------------------------------------


def test_outcome_constant_per_arm():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((60, 2))
    t = np.zeros(60, dtype=np.int64)
    t[:30] = 1
    y = np.where(t == 1, 5.0, -2.0)
    data = ObservationalDataset(covariates=x, treatments=t, outcomes=y)
    model = fit_outcome(data, OutcomeConfig(n_trees=10))
    assert np.allclose(model.predict(x, 1), 5.0)
    assert np.allclose(model.predict(x, 0), -2.0)


def test_outcome_ridge_recovers_linear_surface():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((500, 3))
    t = (rng.random(500) < 0.5).astype(np.int64)
    y = 2.0 * x[:, 1]
    data = ObservationalDataset(covariates=x, treatments=t, outcomes=y)
    model = fit_outcome(data, OutcomeConfig(kind="ridge_linear"))
    for arm in (0, 1):
        coef = model.arm_models[arm].coef
        assert abs(coef[0]) < 1e-3
        assert abs(coef[2] - 2.0) < 1e-3
        assert np.max(np.abs(model.predict(x, arm) - y)) < 1e-2


def test_outcome_min_arm_size_enforced():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((30, 2))
    t = np.zeros(30, dtype=np.int64)
    t[:4] = 1
    data = ObservationalDataset(covariates=x, treatments=t,
                                outcomes=rng.standard_normal(30))
    with pytest.raises(FitError, match="arm 1 has 4 units"):
        fit_outcome(data, OutcomeConfig())


def test_outcome_joint_mode_uses_treatment_column():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((400, 2))
    t = (rng.random(400) < 0.5).astype(np.int64)
    y = x[:, 0] + 3.0 * t
    data = ObservationalDataset(covariates=x, treatments=t, outcomes=y)
    model = fit_outcome(data, OutcomeConfig(kind="ridge_linear", joint=True))
    gap = model.predict(x, 1) - model.predict(x, 0)
    assert np.allclose(gap, 3.0, atol=1e-2)


def test_outcome_joint_mode_needs_both_arms():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((30, 2))
    data = ObservationalDataset(covariates=x,
                                treatments=np.zeros(30, dtype=np.int64),
                                outcomes=np.zeros(30))
    with pytest.raises(FitError, match="both arms"):
        fit_outcome(data, OutcomeConfig(joint=True))


def test_outcome_train_rmse_path_is_monotone():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((200, 3))
    t = (rng.random(200) < 0.5).astype(np.int64)
    y = np.sin(x[:, 0]) + t * x[:, 1] + 0.1 * rng.standard_normal(200)
    data = ObservationalDataset(covariates=x, treatments=t, outcomes=y)
    model = fit_outcome(data, OutcomeConfig(n_trees=30))
    path = model.train_rmse_path
    assert set(path) == {0, 1}
    for rmse in path.values():
        assert (np.diff(rmse) <= 1e-12).all()


def test_outcome_config_validation():
    with pytest.raises(ValueError, match="unknown outcome"):
        OutcomeConfig(kind="forest")
    with pytest.raises(ValueError):
        OutcomeConfig(ridge_penalty=0.0)
    with pytest.raises(ValueError):
        OutcomeConfig(min_arm_size=0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_propensity_serialization_round_trip(tmp_path):
    data = logistic_dataset(800, np.array([0.2, 0.7, -0.4]), seed=16)
    for kind in ("raw", "rbf"):
        basis = make_basis(kind, data.covariates, n_centers=10, seed=1)
        model = fit_propensity(data, basis)
        path = tmp_path / f"prop_{kind}.json"
        save_model(model, path)
        clone = load_model(path)
        assert np.array_equal(clone.predict(data.covariates),
                              model.predict(data.covariates))


def test_outcome_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((150, 2))
    t = (rng.random(150) < 0.5).astype(np.int64)
    y = x[:, 0] + t
    data = ObservationalDataset(covariates=x, treatments=t, outcomes=y)
    configs = [
        OutcomeConfig(n_trees=8),
        OutcomeConfig(kind="ridge_linear"),
        OutcomeConfig(kind="ridge_linear", joint=True),
        OutcomeConfig(n_trees=5, joint=True),
    ]
    for i, cfg in enumerate(configs):
        model = fit_outcome(data, cfg)
        path = tmp_path / f"outcome_{i}.json"
        save_model(model, path)
        clone = load_model(path)
        for arm in (0, 1):
            assert np.array_equal(clone.predict(x, arm), model.predict(x, arm))


def test_serialization_rejects_wrong_version():
    data = logistic_dataset(300, np.array([0.0, 0.5]), seed=18)
    model = fit_propensity(data, BasisExpansion(kind="raw", n_inputs=1))
    payload = model_to_dict(model)
    payload["version"] = 99
    with pytest.raises(ValueError, match="version"):
        model_from_dict(payload)


def test_serialization_rejects_unknown_type():
    with pytest.raises(ValueError, match="model_type"):
        model_from_dict({"version": 1, "model_type": "mystery"})
    with pytest.raises(TypeError):
        model_to_dict(object())


def test_sigmoid_endpoints():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    big = sigmoid(np.array([800.0, -800.0]))
    assert big[0] == 1.0 and big[1] == 0.0
