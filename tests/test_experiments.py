"""Tests for the benchmark and optimization drivers and their writers."""

import json
import os

import numpy as np
import pytest

import stochint.experiments
import stochint.parallel
from stochint.data import DatasetError, DgpConfig
from stochint.effects import (
    NuisanceSpec,
    OutcomeSpec,
    PropensitySpec,
    cross_fit_records,
    expected_response_from_records,
)
from stochint.experiments import (
    BenchmarkConfig,
    make_dataset,
    run_benchmark,
    run_optimization,
    write_best_delta_csv,
    write_epsilon_table,
    write_json,
    write_replications,
    write_sweep_csv,
    write_trace_csv,
)
from stochint.genetic import GaConfig
from stochint.nuisance import FitError, OutcomeConfig

FAST_NUISANCE = NuisanceSpec(
    propensity=PropensitySpec(basis_kind="raw"),
    outcome=OutcomeSpec(config=OutcomeConfig(kind="ridge_linear")),
)

BALANCED = DgpConfig(treated_fraction_target=0.4)


def small_benchmark(**overrides):
    base = dict(
        generator="ihdp",
        n=160,
        d=3,
        dgp=BALANCED,
        methods=("sie", "ols"),
        replications=2,
        folds=3,
        seed=0,
        nuisance=FAST_NUISANCE,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


# ---------------------------------------------------------------------------
# dataset dispatch and configuration
# ---------------------------------------------------------------------------


def test_make_dataset_dispatch():
    ihdp = make_dataset("ihdp", 50, 4, seed=0, dgp=None)
    assert ihdp.n_features == 4
    op = make_dataset("op", 50, 4, seed=0, dgp=None)
    assert op.n_features == 11  # generator fixes its own width
    with pytest.raises(DatasetError, match="unknown generator"):
        make_dataset("census", 50, 4, seed=0, dgp=None)


def test_benchmark_config_validation():
    with pytest.raises(ValueError, match="unknown methods"):
        small_benchmark(methods=("sie", "matching"))
    with pytest.raises(ValueError, match="at least one"):
        small_benchmark(methods=())
    with pytest.raises(ValueError, match="replications"):
        small_benchmark(replications=0)
    with pytest.raises(ValueError, match="generator"):
        small_benchmark(generator="census")


def test_benchmark_config_refuses_oracle_outcomes(monkeypatch):
    # sie would take the train split's ATE from the truth but fit the test
    # split's, so the two sides would not measure the same estimator
    monkeypatch.setattr(stochint.experiments, "make_dataset", pytest.fail)
    oracle = NuisanceSpec(outcome=OutcomeSpec(mode="oracle"))
    with pytest.raises(ValueError, match="outcome mode 'oracle'"):
        run_benchmark(small_benchmark(nuisance=oracle))
    # oracle propensities stay: ipwe with the true propensity is a baseline
    small_benchmark(nuisance=NuisanceSpec(propensity=PropensitySpec(mode="oracle")))


# ---------------------------------------------------------------------------
# benchmark runs
# ---------------------------------------------------------------------------


def test_run_benchmark_row_layout():
    result = run_benchmark(small_benchmark())
    assert len(result.rows) == 2 * 2 * 2  # reps x methods x splits
    for row in result.rows:
        assert row.size == 160
        assert row.split in ("train", "test")
        assert np.isfinite(row.estimate) and np.isfinite(row.truth)
        assert row.epsilon == abs(row.estimate - row.truth)
    # every method sees the same split within a replication
    truths = {(r.replication, r.split): r.truth for r in result.rows}
    for row in result.rows:
        assert truths[(row.replication, row.split)] == row.truth


def test_aggregate_matches_manual_mean_std():
    result = run_benchmark(small_benchmark())
    table = result.aggregate()
    assert [(a["method"], a["split"]) for a in table] == [
        ("sie", "train"), ("sie", "test"), ("ols", "train"), ("ols", "test"),
    ]
    for entry in table:
        eps = [r.epsilon for r in result.rows
               if r.method == entry["method"] and r.split == entry["split"]]
        assert entry["mean_epsilon"] == float(np.mean(eps))
        assert entry["std_epsilon"] == float(np.std(eps))


def test_each_replication_draws_its_own_dataset():
    result = run_benchmark(small_benchmark(methods=("ols",), replications=3))
    truths = {r.truth for r in result.rows if r.split == "train"}
    assert len(truths) == 3


@pytest.mark.parametrize("overrides, message", [
    (dict(methods=("ols", "sie", "ols")), "methods lists ols more than once"),
], ids=["methods"])
def test_benchmark_config_refuses_a_repeat(overrides, message):
    # a repeat would run its replications twice and write each row twice
    with pytest.raises(ValueError, match=f"^{message}$"):
        small_benchmark(**overrides)


def test_run_benchmark_is_deterministic():
    a = run_benchmark(small_benchmark())
    b = run_benchmark(small_benchmark())
    for row_a, row_b in zip(a.rows, b.rows):
        assert row_a == row_b


# Each replication's sie estimate runs in a forked worker when more
# than one CPU is usable.  These pin that path to the in-process one.
BOOSTED_NUISANCE = NuisanceSpec(
    propensity=PropensitySpec(basis_kind="raw"),
    outcome=OutcomeSpec(config=OutcomeConfig(n_trees=5, max_depth=2)),
)


def benchmark_with_workers(monkeypatch, workers, cfg):
    """run_benchmark's rows with the worker count forced, and the number of
    forks; a worker that forks fails the run."""
    test_process = os.getpid()
    real_fork = os.fork
    forks = []

    def fork():
        if os.getpid() != test_process:
            raise AssertionError("a replication worker forked")
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as patch:
        patch.setattr(stochint.parallel, "usable_cpus", lambda: workers)
        patch.setattr(os, "fork", fork)
        rows = run_benchmark(cfg).rows
    return rows, len(forks)


def assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("overrides, forks", [
    (dict(methods=("sie", "ols", "ipwe")), 2),
    (dict(nuisance=FAST_NUISANCE), 2),
    (dict(methods=("ols", "ipwe")), 2),
], ids=["all-methods", "ridge", "no-sie"])
def test_replication_workers_match_in_process(monkeypatch, overrides, forks):
    cfg = small_benchmark(**{"nuisance": BOOSTED_NUISANCE, **overrides})
    serial, serial_forks = benchmark_with_workers(monkeypatch, 1, cfg)
    forked, forked_forks = benchmark_with_workers(monkeypatch, 2, cfg)
    assert serial == forked
    assert len(serial) == 2 * len(cfg.methods) * cfg.replications
    assert (serial_forks, forked_forks) == (0, forks)
    assert_no_child_processes()


def test_replication_worker_failure_names_it_and_reaps_workers(monkeypatch):
    spec = NuisanceSpec(
        propensity=PropensitySpec(basis_kind="raw"),
        outcome=OutcomeSpec(config=OutcomeConfig(n_trees=5, max_depth=2,
                                                 min_arm_size=1000)),
    )
    cfg = small_benchmark(nuisance=spec, replications=3)
    with pytest.raises(FitError, match="^size 160 replication 0: fold 0: arm 0 has"):
        benchmark_with_workers(monkeypatch, 2, cfg)
    assert_no_child_processes()


def test_non_finite_estimate_names_its_replication(monkeypatch):
    def estimates(method, seed, train, test, cfg):
        return (np.nan if seed == cfg.seed + 2 else 0.0), 0.0

    monkeypatch.setattr(stochint.experiments, "_split_estimates", estimates)
    with pytest.raises(ValueError, match="^size 160 replication 1: epsilon_ate "
                                         "needs finite inputs"):
        run_benchmark(small_benchmark(methods=("ols",)))


# ---------------------------------------------------------------------------
# optimization driver
# ---------------------------------------------------------------------------


def test_run_optimization_outputs():
    data = make_dataset("op", 80, 11, seed=1, dgp=None)
    ga = GaConfig(population_size=16, generations=20, seed=2)
    run = run_optimization(data, ga, FAST_NUISANCE, k=3, seed=0)
    assert run.best.shape == (80,)
    assert run.best.min() >= 0.0 and run.best.max() <= 10.0
    assert run.trace.generations == 20
    # the searched policy beats leaving every propensity unchanged
    assert run.expected_best > run.expected_status_quo
    fitness_best = run.trace.best_fitness[-1]
    assert abs(fitness_best - 80 * run.expected_best) <= 1e-8 * abs(fitness_best)
    assert np.isfinite(run.expected_random)


def test_status_quo_is_delta_one_whatever_the_bounds():
    data = make_dataset("op", 80, 11, seed=1, dgp=None)
    ga = GaConfig(population_size=8, generations=3, bounds=(2.0, 10.0), seed=2)
    run = run_optimization(data, ga, FAST_NUISANCE, k=3, seed=0)
    records, _ = cross_fit_records(data, 3, 0, FAST_NUISANCE)
    assert run.expected_status_quo == expected_response_from_records(records, np.ones(80))
    assert run.expected_status_quo != expected_response_from_records(records, np.full(80, 2.0))


def test_run_optimization_is_deterministic():
    data = make_dataset("op", 60, 11, seed=3, dgp=None)
    ga = GaConfig(population_size=8, generations=6, seed=4)
    a = run_optimization(data, ga, FAST_NUISANCE, k=3, seed=0)
    b = run_optimization(data, ga, FAST_NUISANCE, k=3, seed=0)
    assert np.array_equal(a.best, b.best)
    assert a.expected_best == b.expected_best
    assert a.expected_random == b.expected_random


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def test_benchmark_writers_deterministic_bytes(tmp_path):
    result = run_benchmark(small_benchmark())
    for writer, name in ((write_epsilon_table, "eps.csv"),
                         (write_replications, "reps.csv")):
        p1, p2 = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        writer(result, p1)
        writer(result, p2)
        assert p1.read_bytes() == p2.read_bytes()
    lines = (tmp_path / "a_eps.csv").read_text().strip().splitlines()
    assert lines[0] == "method,split,mean_epsilon,std_epsilon"
    assert len(lines) == 1 + 4
    rep_lines = (tmp_path / "a_reps.csv").read_text().strip().splitlines()
    assert len(rep_lines) == 1 + 8


def test_small_writers(tmp_path):
    write_sweep_csv([0.0, 1.0], [2.5, 3.5], tmp_path / "sweep.csv")
    sweep = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert sweep == ["delta,psi_hat", "0.0,2.5", "1.0,3.5"]

    from stochint.genetic import GaTrace

    write_best_delta_csv(np.array([1.5, 2.0]), tmp_path / "best.csv")
    best = (tmp_path / "best.csv").read_text().strip().splitlines()
    assert best == ["unit_index,delta", "0,1.5", "1,2.0"]

    trace = GaTrace(best_fitness=np.array([1.0, 2.0]),
                    mean_fitness=np.array([0.5, 1.5]))
    write_trace_csv(trace, tmp_path / "trace.csv")
    got = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert got == ["generation,best_fitness,mean_fitness",
                   "0,1.0,0.5", "1,2.0,1.5"]


def test_write_json_is_sorted_with_trailing_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json({"zeta": 1, "alpha": 2}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": 2}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    # NaN and Infinity are not JSON; a strict reader would refuse the file
    with pytest.raises(ValueError):
        write_json({"a": 1, "x": value}, tmp_path / "out.json")
    assert not (tmp_path / "out.json").exists()
