"""Tests for basis expansions, the propensity solver, and outcome models."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochint.nuisance
from stochint.data import ObservationalDataset, generate_ihdp_like, split_folds
from stochint.effects import PropensitySpec
from stochint.nuisance import (
    _HESSIAN_BLOCK,
    _NEWTON_TOL,
    BasisExpansion,
    FitError,
    OutcomeConfig,
    PropensityModel,
    _gradient,
    _hessian,
    _linear_predictor,
    fit_outcome,
    fit_propensity,
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


def stacked_expansion(basis, x):
    """The expansion as np.hstack of its pieces: the reference for expand."""
    n, d = x.shape
    if basis.kind == "raw":
        return np.hstack([np.ones((n, 1)), x])
    return np.hstack([np.ones((n, 1)), x,
                      *(x[:, i:] * x[:, i][:, None] for i in range(d))])


@pytest.mark.parametrize("kind", ["raw", "polynomial2"])
@pytest.mark.parametrize("n, d", [(1, 1), (7, 3), (2000, 25)])
def test_expand_matches_stacked_pieces_bit_for_bit(kind, n, d):
    x = np.random.default_rng(n + d).standard_normal((n, d)) * 3.0
    basis = BasisExpansion(kind, d)
    got, want = basis.expand(x), stacked_expansion(basis, x)
    assert got.shape == want.shape == (n, basis.output_dim)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    rows = np.empty((basis.output_dim, n))
    assert basis.expand(x, out=rows).base is rows
    assert np.array_equal(rows.T.view(np.int64), want.view(np.int64))


def test_basis_rejects_bad_input():
    basis = BasisExpansion(kind="raw", n_inputs=2)
    with pytest.raises(ValueError, match="expected"):
        basis.expand(np.zeros((3, 5)))
    with pytest.raises(ValueError, match=r"expected \(n, 2\) input, got \(2,\)"):
        basis.expand(np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        basis.expand(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="unknown basis"):
        BasisExpansion(kind="cubic", n_inputs=2)


def test_wide_polynomial2_basis_fails_before_expanding(monkeypatch):
    # 1 + d + d (d + 1) / 2 columns: 1,953 at d = 61, 2,016 at d = 62
    assert BasisExpansion(kind="polynomial2", n_inputs=61).output_dim == 1953

    def expand(self, x):
        pytest.fail("the wide basis was expanded")

    monkeypatch.setattr(BasisExpansion, "expand", expand)
    data = logistic_dataset(40, [0.0] + [0.1] * 62, seed=0)
    with pytest.raises(ValueError, match="62 covariates has 2016 columns, "
                                         "more than 2000; use the raw basis"):
        fit_propensity(data, BasisExpansion("polynomial2", data.n_features))
    assert BasisExpansion("raw", data.n_features).output_dim == 63


# ---------------------------------------------------------------------------
# propensity solver
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 3))
    t = (rng.random(40) < 0.5).astype(float)
    lam = 1e-4
    for kind in ("raw", "polynomial2"):
        basis = BasisExpansion(kind=kind, n_inputs=3)
        g = basis.expand(x)
        beta = rng.standard_normal(basis.output_dim) * 0.3

        def nll(b):
            z = g @ b
            return float(np.mean(np.logaddexp(0.0, z) - t * z) + 0.5 * lam * b @ b)

        r = sigmoid(g @ beta) - t
        grad = _gradient(basis, BasisExpansion("raw", 3).expand(x), r, beta, lam)
        h = 1e-6
        for j in range(basis.output_dim):
            e = np.zeros_like(beta)
            e[j] = h
            fd = (nll(beta + e) - nll(beta - e)) / (2.0 * h)
            assert abs(grad[j] - fd) <= 1e-4 * max(1.0, abs(fd))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["raw", "polynomial2"]), n=st.integers(1, 50),
       d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_linear_predictor_equals_design_times_beta(kind, n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 3.0
    basis = BasisExpansion(kind, d)
    beta = rng.standard_normal(basis.output_dim)
    g = basis.expand(x)
    z = _linear_predictor(basis, BasisExpansion("raw", d).expand(x), beta)
    assert z.shape == (n,)
    assert np.all(np.abs(z - g @ beta) <= 1e-12 * (np.abs(g) @ np.abs(beta)))


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


def test_propensity_reports_non_convergence(monkeypatch):
    data = logistic_dataset(500, np.array([0.2, 1.5]), seed=8)
    basis = BasisExpansion(kind="raw", n_inputs=1)
    monkeypatch.setattr(stochint.nuisance, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(FitError, match="did not converge"):
        fit_propensity(data, basis)


def test_propensity_fit_is_deterministic():
    data = logistic_dataset(1000, np.array([0.1, 0.8, -0.3]), seed=9)
    basis = BasisExpansion(kind="polynomial2", n_inputs=2)
    a = fit_propensity(data, basis)
    b = fit_propensity(data, basis)
    assert np.array_equal(a.beta, b.beta)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3000), d=st.integers(1, 8),
       kind=st.sampled_from(["raw", "polynomial2"]), seed=st.integers(0, 2**32 - 1))
@example(n=2, d=1, kind="raw", seed=0)
@example(n=1023, d=8, kind="polynomial2", seed=1)
@example(n=1024, d=8, kind="polynomial2", seed=2)
@example(n=1025, d=6, kind="raw", seed=3)
@example(n=2048, d=4, kind="polynomial2", seed=4)
@example(n=3000, d=8, kind="polynomial2", seed=5)
def test_blocked_hessian_matches_one_product(n, d, kind, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    basis = BasisExpansion(kind, d)
    p = sigmoid(3.0 * rng.standard_normal(n))
    w = p * (1.0 - p)
    buffer = np.empty((basis.output_dim, min(_HESSIAN_BLOCK, n)))
    hess = _hessian(basis, x, np.sqrt(w), buffer)
    g = basis.expand(x)
    want = g.T @ (g * w[:, None])
    assert np.abs(hess - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(hess, hess.T)


def reference_fit_propensity(g, t, lam=1e-4, tol=1e-8, max_iter=100):
    """The Newton solver before the blocked Hessian, kept to pin the fit: a
    GEMM Hessian through an (n, s) copy of g * w, and four passes over g per
    step.  Returns (beta, n_iter)."""
    n, s = g.shape

    def objective(beta):
        z = g @ beta
        nll = np.mean(np.logaddexp(0.0, z) - t * z)
        return float(nll + 0.5 * lam * np.dot(beta, beta))

    def gradient(beta):
        return g.T @ (sigmoid(g @ beta) - t) / n + lam * beta

    beta = np.zeros(s)
    obj, grad = objective(beta), gradient(beta)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        if np.linalg.norm(grad) <= tol:
            n_iter -= 1
            break
        p = sigmoid(g @ beta)
        hess = g.T @ (g * (p * (1.0 - p))[:, None]) / n + lam * np.eye(s)
        step = np.linalg.solve(hess, grad)
        alpha = 1.0
        while alpha >= 2.0 ** -40:
            candidate = beta - alpha * step
            cand_obj = objective(candidate)
            if cand_obj <= obj:
                beta, obj = candidate, cand_obj
                break
            alpha *= 0.5
        else:
            break
        grad = gradient(beta)
    return beta, n_iter


@pytest.fixture(scope="module")
def ihdp_fold():
    """A 10,000-row ihdp sample and the 8,000-row complement of its fold 0."""
    data = generate_ihdp_like(n=10000, d=25, seed=0)
    return data, data.subset(split_folds(data.n_units, 5, 0).complement(0))


@pytest.mark.parametrize("case", ["ihdp", "logistic"])
def test_propensity_fit_matches_frozen_solver(case, ihdp_fold):
    if case == "ihdp":
        data, train = ihdp_fold
    else:
        data = train = logistic_dataset(3000, [0.2, 1.0, -0.6, 0.4], seed=17)
    basis = BasisExpansion("polynomial2", data.n_features)
    model = fit_propensity(train, basis)
    beta, n_iter = reference_fit_propensity(basis.expand(train.covariates),
                                            train.treatments.astype(float))
    want = np.clip(sigmoid(basis.expand(data.covariates) @ beta), 0.01, 0.99)
    got = model.predict(data.covariates)
    assert np.max(np.abs(got - want) / want) <= 1e-12
    assert model.n_iter == n_iter
    assert model.grad_norm <= _NEWTON_TOL


def test_propensity_fit_keeps_no_second_copy_of_the_design():
    train = generate_ihdp_like(n=16000, d=25, seed=0)
    basis = BasisExpansion("polynomial2", train.n_features)
    tracemalloc.start()
    try:
        fit_propensity(train, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # basis rows exist one 1,024-row block at a time, never as the design
    design_bytes = train.n_units * basis.output_dim * 8
    assert peak <= 0.4 * design_bytes, peak / design_bytes


def test_propensity_fit_keeps_one_hessian_live():
    train = generate_ihdp_like(n=3000, d=40, seed=0)
    basis = BasisExpansion("polynomial2", train.n_features)
    s = basis.output_dim
    assert s >= 800
    tracemalloc.start()
    try:
        fit_propensity(train, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Hessian being summed, one h @ h.T product and the (s, 1,024) block
    # buffer make about 3.4 s*s*8 bytes; the previous step's Hessian kept
    # live beside them would make about 4.4
    assert peak <= 3.75 * s * s * 8, peak / (s * s * 8)


def test_propensity_model_validation():
    basis = BasisExpansion(kind="raw", n_inputs=2)
    with pytest.raises(ValueError, match="clip"):
        PropensityModel(beta=np.zeros(3), basis=basis, clip=0.6)
    with pytest.raises(ValueError, match="beta length"):
        PropensityModel(beta=np.zeros(5), basis=basis)


def test_l2_penalty_validation():
    data = logistic_dataset(100, np.array([0.2, 1.0]), seed=3)
    basis = BasisExpansion(kind="raw", n_inputs=1)
    for penalty in (0.0, -1e-4, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="l2_penalty must be finite and > 0"):
            PropensitySpec(l2_penalty=penalty)
        with pytest.raises(ValueError, match="l2_penalty must be finite and > 0"):
            fit_propensity(data, basis, l2_penalty=penalty)
    assert PropensitySpec().l2_penalty == 1e-4
    assert fit_propensity(data, basis, l2_penalty=1e-2).n_iter > 0


def test_fit_propensity_refuses_a_bad_clip_before_fitting(monkeypatch):
    def hessian(*args):
        pytest.fail("a Hessian was built for a fit with a bad clip")

    monkeypatch.setattr(stochint.nuisance, "_hessian", hessian)
    data = logistic_dataset(100, np.array([0.2, 1.0]), seed=3)
    with pytest.raises(ValueError, match=r"clip must lie in \(0, 0.5\)"):
        fit_propensity(data, BasisExpansion(kind="raw", n_inputs=1), clip=0.7)


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
    cfg = OutcomeConfig(n_trees=10)
    assert np.allclose(fit_outcome(data, cfg, 1).predict(x), 5.0)
    assert np.allclose(fit_outcome(data, cfg, 0).predict(x), -2.0)


def test_outcome_ridge_recovers_linear_surface():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((500, 3))
    t = (rng.random(500) < 0.5).astype(np.int64)
    y = 2.0 * x[:, 1]
    data = ObservationalDataset(covariates=x, treatments=t, outcomes=y)
    for arm in (0, 1):
        model = fit_outcome(data, OutcomeConfig(kind="ridge_linear"), arm)
        assert abs(model.coef[0]) < 1e-3
        assert abs(model.coef[2] - 2.0) < 1e-3
        assert np.max(np.abs(model.predict(x) - y)) < 1e-2


def test_outcome_min_arm_size_enforced():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((30, 2))
    t = np.zeros(30, dtype=np.int64)
    t[:4] = 1
    data = ObservationalDataset(covariates=x, treatments=t,
                                outcomes=rng.standard_normal(30))
    # both arms are checked, whichever one is fit
    with pytest.raises(FitError, match="arm 1 has 4 units"):
        fit_outcome(data, OutcomeConfig(), arm=0)


def test_outcome_train_rmse_path_is_monotone():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((200, 3))
    t = (rng.random(200) < 0.5).astype(np.int64)
    y = np.sin(x[:, 0]) + t * x[:, 1] + 0.1 * rng.standard_normal(200)
    data = ObservationalDataset(covariates=x, treatments=t, outcomes=y)
    for arm in (0, 1):
        rmse = fit_outcome(data, OutcomeConfig(n_trees=30), arm).train_rmse_
        assert rmse.shape == (30,)
        assert (np.diff(rmse) <= 1e-12).all()


@pytest.mark.parametrize("arm", [2, -1, None])
def test_outcome_arm_must_be_0_or_1(arm):
    rng = np.random.default_rng(16)
    t = np.zeros(40, dtype=np.int64)
    t[:20] = 1
    data = ObservationalDataset(covariates=rng.standard_normal((40, 2)),
                                treatments=t, outcomes=rng.standard_normal(40))
    with pytest.raises(ValueError, match="^arm must be 0 or 1$"):
        fit_outcome(data, OutcomeConfig(), arm)


def test_outcome_config_validation():
    with pytest.raises(ValueError, match="unknown outcome"):
        OutcomeConfig(kind="forest")
    for penalty in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^ridge_penalty must be finite and > 0$"):
            OutcomeConfig(ridge_penalty=penalty)
    with pytest.raises(ValueError):
        OutcomeConfig(min_arm_size=0)


def test_sigmoid_endpoints():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    big = sigmoid(np.array([800.0, -800.0]))
    assert big[0] == 1.0 and big[1] == 0.0
