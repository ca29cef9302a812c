"""End-to-end acceptance gate.

Each test checks one shipped guarantee and prints a single verdict line
(visible under ``pytest -s``) with the measured quantities. The replicated
benchmark and Monte Carlo tests run several minutes in total.
"""

import time

import numpy as np
import pytest

from stochint.cli import main
from stochint.data import DgpConfig, generate_ihdp_like, generate_op_like
from stochint.effects import (
    NuisanceSpec,
    OutcomeSpec,
    PropensitySpec,
    cross_fit_records,
    estimate_ate_difference,
    estimate_sie,
    epsilon_ate,
    expected_response_from_records,
    stochastic_propensity,
)
from stochint.experiments import BenchmarkConfig, run_benchmark, run_optimization
from stochint.genetic import GaConfig, optimize_records
from stochint.nuisance import (
    BasisExpansion,
    OutcomeConfig,
    _gradient,
    fit_propensity,
    sigmoid,
)
from stochint.trees import GradientBoostedRegressor

from conftest import oracle_records

pytestmark = pytest.mark.slow


def _verdict(name: str, ok: bool, detail: str, t0: float) -> None:
    line = (f"criterion {name}: {'PASS' if ok else 'FAIL'} "
            f"[{detail}] ({time.time() - t0:.1f}s)")
    print(line)
    assert ok, line


def oracle_spec() -> NuisanceSpec:
    return NuisanceSpec(
        propensity=PropensitySpec(mode="oracle"),
        outcome=OutcomeSpec(mode="oracle"),
    )


def linear_spec() -> NuisanceSpec:
    return NuisanceSpec(
        propensity=PropensitySpec(basis_kind="raw"),
        outcome=OutcomeSpec(config=OutcomeConfig(kind="ridge_linear")),
    )


def test_criterion_1_stochastic_propensity_identities():
    t0 = time.time()
    p_grid = np.linspace(0.05, 0.95, 10)
    identity_exact = all(
        stochastic_propensity(float(p), 1.0) == float(p) for p in p_grid
    )
    zero_exact = all(
        stochastic_propensity(float(p), 0.0) == 0.0 for p in p_grid
    )
    worked = abs(stochastic_propensity(0.5, 1.5) - 0.6)
    delta_grid = np.linspace(0.0, 5.0, 10)
    strictly_monotone = True
    for p in p_grid:  # 10 x 10 = 100 (p, delta) pairs
        values = [stochastic_propensity(float(p), float(d)) for d in delta_grid]
        strictly_monotone &= all(b > a for a, b in zip(values, values[1:]))
    ok = identity_exact and zero_exact and worked <= 1e-12 and strictly_monotone
    _verdict(
        "1 stochastic propensity",
        ok,
        f"delta=1 exact {identity_exact}, delta=0 exact {zero_exact}, "
        f"|q(0.5,1.5)-0.6|={worked:.2e}, strict monotone on 100 pairs "
        f"{strictly_monotone}",
        t0,
    )


def test_criterion_2_influence_oracle():
    t0 = time.time()
    data = generate_ihdp_like(2000, 10, seed=42,
                              config=DgpConfig(noise_scale=0.0))
    p = data.truth.true_propensity
    worst = 0.0
    for delta in (0.0, 0.5, 1.0, 2.0, 5.0):
        report = estimate_sie(data, delta, k=5, seed=0, nuisance=oracle_spec())
        q = delta * p / (1.0 + (delta - 1.0) * p)
        brute = float(np.mean(q * data.truth.mu1 + (1.0 - q) * data.truth.mu0))
        worst = max(worst, abs(report.psi_hat - brute))
        worst = max(worst, abs(report.psi_hat
                               - (report.tau_sie + report.mean_outcome)))
    ok = worst <= 1e-12
    _verdict(
        "2 influence oracle",
        ok,
        f"max |psi_hat - brute force| = {worst:.2e} over "
        "delta in {0, 0.5, 1, 2, 5} at n=2000",
        t0,
    )


def test_criterion_3_unbiasedness_monte_carlo():
    t0 = time.time()
    reps = 200
    delta = 2.0
    dgp = DgpConfig(nonlinearity=0.0)  # surfaces realizable by the nuisances
    spec = linear_spec()
    estimates = np.empty(reps)
    truths = np.empty(reps)
    for r in range(reps):
        data = generate_ihdp_like(2000, 5, seed=9000 + r, config=dgp)
        report = estimate_sie(data, delta, k=5, seed=r, nuisance=spec)
        estimates[r] = report.psi_hat
        p = data.truth.true_propensity
        q = delta * p / (1.0 + (delta - 1.0) * p)
        truths[r] = float(np.mean(q * data.truth.mu1
                                  + (1.0 - q) * data.truth.mu0))
    bias = abs(estimates.mean() - truths.mean())
    tolerance = 3.0 * estimates.std(ddof=1) / np.sqrt(reps)
    ok = bias <= tolerance
    _verdict(
        "3 unbiasedness Monte Carlo",
        ok,
        f"|mean - truth| = {bias:.4f} <= 3 std/sqrt(R) = {tolerance:.4f} "
        f"(R={reps}, n=2000, delta=2)",
        t0,
    )


def test_criterion_4_error_ordering():
    t0 = time.time()
    cfg = BenchmarkConfig(generator="ihdp", n=747, d=25, replications=50,
                          seed=0)
    result = run_benchmark(cfg)
    means = {
        (a["method"], a["split"]): a["mean_epsilon"]
        for a in result.aggregate()
    }
    sie = means[("sie", "test")]
    ols = means[("ols", "test")]
    ipwe = means[("ipwe", "test")]
    ok = sie < ols and sie < ipwe
    _verdict(
        "4 error ordering",
        ok,
        f"test-split mean epsilon: sie={sie:.3f} < ols={ols:.3f} "
        f"and < ipwe={ipwe:.3f} (R=50, n=747)",
        t0,
    )


def test_criterion_5_data_size_trend():
    t0 = time.time()
    errors = {200: [], 2000: []}
    for rep in range(30):
        for size in (200, 2000):
            data = generate_ihdp_like(size, 25, seed=500 + rep)
            est = estimate_ate_difference(data, 5, seed=rep)
            errors[size].append(epsilon_ate(est, data.truth.ate))
    small = float(np.mean(errors[200]))
    large = float(np.mean(errors[2000]))
    ok = large < small
    _verdict(
        "5 data-size trend",
        ok,
        f"mean epsilon at n=2000 ({large:.3f}) < at n=200 ({small:.3f}), R=30",
        t0,
    )


def test_criterion_6_delta_sweep_shape():
    t0 = time.time()
    data = generate_op_like(2000, seed=7)
    grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0])
    records, _ = cross_fit_records(data, 5, 0)
    psis = expected_response_from_records(records, grid[:, None])
    non_decreasing = bool((np.diff(psis[:6]) >= 0).all())
    saturation = abs(psis[6] - psis[7]) / abs(psis[7] - psis[0])
    ok = non_decreasing and saturation < 0.05
    _verdict(
        "6 delta-sweep shape",
        ok,
        f"non-decreasing on 0..5 {non_decreasing}, "
        f"|psi(8)-psi(10)| / |psi(10)-psi(0)| = {saturation:.4f} < 0.05",
        t0,
    )


def test_criterion_7_genetic_optimizer():
    t0 = time.time()
    records = oracle_records(20, seed=0)
    best, trace = optimize_records(records, GaConfig(seed=0))
    boundary_mean = float(best.mean())
    trace_monotone = bool((np.diff(trace.best_fitness) >= 0).all())

    wins = 0
    for i in range(20):
        data = generate_op_like(1000, seed=100 + i)
        run = run_optimization(data, GaConfig(seed=i), k=5, seed=i)
        wins += int(run.expected_best > run.expected_random)

    ok = boundary_mean >= 9.0 and trace_monotone and wins >= 18
    _verdict(
        "7 genetic optimizer",
        ok,
        f"boundary mean delta = {boundary_mean:.2f} >= 9.0, elitism trace "
        f"non-decreasing {trace_monotone}, beats random {wins}/20",
        t0,
    )


def test_criterion_8_nuisance_checks():
    t0 = time.time()
    rng = np.random.default_rng(0)

    basis = BasisExpansion(kind="raw", n_inputs=5)
    g = basis.expand(rng.standard_normal((60, 5)))
    t = (rng.random(60) < 0.5).astype(float)
    beta = rng.standard_normal(6) * 0.4
    lam = 1e-4

    def nll(b):
        z = g @ b
        return float(np.mean(np.logaddexp(0.0, z) - t * z) + 0.5 * lam * b @ b)

    # g is the raw basis, [1, x]: the a that _gradient sums over
    grad = _gradient(basis, g, sigmoid(g @ beta) - t, beta, lam)
    h = 1e-6
    worst_rel = 0.0
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        fd = (nll(beta + e) - nll(beta - e)) / (2.0 * h)
        worst_rel = max(worst_rel, abs(grad[j] - fd) / max(1.0, abs(fd)))
    grad_ok = worst_rel <= 1e-4

    x = rng.standard_normal((400, 3))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.standard_normal(400)
    booster = GradientBoostedRegressor(n_trees=60).fit(x, y)
    rmse_ok = bool((np.diff(booster.train_rmse_) <= 1e-12).all())

    strong = generate_ihdp_like(1500, 4, seed=1,
                                config=DgpConfig(treated_fraction_target=0.3))
    model = fit_propensity(strong, BasisExpansion(kind="raw", n_inputs=4))
    p = model.predict(strong.covariates)
    clip_ok = bool(p.min() >= model.clip and p.max() <= 1.0 - model.clip)

    ok = grad_ok and rmse_ok and clip_ok
    _verdict(
        "8 nuisance checks",
        ok,
        f"gradient FD rel err = {worst_rel:.2e} <= 1e-4, boosting RMSE "
        f"monotone {rmse_ok}, propensity within clip bounds {clip_ok}",
        t0,
    )


def test_criterion_9_benchmark_determinism(tmp_path):
    t0 = time.time()
    args = ["benchmark", "--generator", "ihdp", "--n", "150", "--d", "3",
            "--replications", "2", "--methods", "sie,ols,ipwe",
            "--folds", "3", "--treated-fraction", "0.4",
            "--outcome-kind", "ridge_linear", "--basis", "raw"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(args + ["--out", str(out_a)])
    rc_b = main(args + ["--out", str(out_b)])
    identical = all(
        (out_a / "tables" / name).read_bytes()
        == (out_b / "tables" / name).read_bytes()
        for name in ("epsilon_ate.csv", "replications.csv")
    )
    ok = rc_a == 0 and rc_b == 0 and identical
    _verdict(
        "9 benchmark determinism",
        ok,
        f"two runs exit ({rc_a}, {rc_b}), CSV tables byte-identical "
        f"{identical}",
        t0,
    )
