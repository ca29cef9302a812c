"""Tests for the benchmark and optimization drivers and their writers."""

import json
import os

import numpy as np
import pytest

import stochint.experiments
import stochint.parallel
from stochint.data import DatasetError, DgpConfig
from stochint.effects import NuisanceSpec, OutcomeSpec, PropensitySpec
from stochint.experiments import (
    BenchmarkConfig,
    make_dataset,
    run_benchmark,
    run_optimization,
    write_best_delta_csv,
    write_epsilon_by_size,
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
    with pytest.raises(ValueError, match="replicate_mode"):
        small_benchmark(replicate_mode="bootstrap")
    with pytest.raises(ValueError, match="generator"):
        small_benchmark(generator="census")


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
    table = result.aggregate(160)
    assert [(a["method"], a["split"]) for a in table] == [
        ("sie", "train"), ("sie", "test"), ("ols", "train"), ("ols", "test"),
    ]
    for entry in table:
        eps = [r.epsilon for r in result.rows
               if r.method == entry["method"] and r.split == entry["split"]]
        assert entry["mean_epsilon"] == float(np.mean(eps))
        assert entry["std_epsilon"] == float(np.std(eps))


def test_seed_replicate_mode_reuses_one_dataset():
    # in "seed" mode the split varies but the underlying sample does not,
    # so the split-weighted truth reassembles to the same value every rep
    cfg = small_benchmark(methods=("ols",), replications=3,
                          replicate_mode="seed", test_fraction=0.2)
    result = run_benchmark(cfg)
    n_test = int(round(160 * 0.2))
    n_train = 160 - n_test
    combined = {}
    for rep in range(3):
        t_train = next(r.truth for r in result.rows
                       if r.replication == rep and r.split == "train")
        t_test = next(r.truth for r in result.rows
                      if r.replication == rep and r.split == "test")
        combined[rep] = (n_train * t_train + n_test * t_test) / 160
    values = list(combined.values())
    assert max(values) - min(values) <= 1e-12

    dgp_mode = run_benchmark(small_benchmark(methods=("ols",), replications=3))
    truths = {r.truth for r in dgp_mode.rows if r.split == "train"}
    assert len(truths) == 3  # fresh draw each replication


def test_run_benchmark_is_deterministic():
    a = run_benchmark(small_benchmark())
    b = run_benchmark(small_benchmark())
    for row_a, row_b in zip(a.rows, b.rows):
        assert row_a == row_b


# Each replication's boosted sie estimate runs in a forked worker when more
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
    (dict(sizes=(100, 160), methods=("sie", "ols", "ipwe")), 2),
    (dict(replicate_mode="seed", replications=3), 2),
    (dict(nuisance=FAST_NUISANCE), 0),
    (dict(methods=("ols", "ipwe")), 0),
], ids=["sizes", "seed-mode", "ridge", "no-sie"])
def test_replication_workers_match_in_process(monkeypatch, overrides, forks):
    cfg = small_benchmark(**{"nuisance": BOOSTED_NUISANCE, **overrides})
    serial, serial_forks = benchmark_with_workers(monkeypatch, 1, cfg)
    forked, forked_forks = benchmark_with_workers(monkeypatch, 2, cfg)
    assert serial == forked
    assert len(serial) == 2 * len(cfg.methods) * cfg.replications * len(
        cfg.sizes or (cfg.n,))
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
    def estimates(method, train, test, cfg, seed):
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
    run = run_optimization(data, ga, FAST_NUISANCE, k=3, seed=0,
                           snapshot_every=5)
    assert run.best.n == 80
    assert run.best.deltas.min() >= 0.0 and run.best.deltas.max() <= 10.0
    assert run.trace.generations == 20
    assert [g for g, _ in run.trace.snapshots] == [0, 5, 10, 15]
    # the searched policy beats leaving every propensity unchanged
    assert run.expected_best > run.expected_status_quo
    assert abs(run.fitness_best - 80 * run.expected_best) <= 1e-8 * abs(run.fitness_best)
    assert np.isfinite(run.expected_random)


def test_run_optimization_is_deterministic():
    data = make_dataset("op", 60, 11, seed=3, dgp=None)
    ga = GaConfig(population_size=8, generations=6, seed=4)
    a = run_optimization(data, ga, FAST_NUISANCE, k=3, seed=0)
    b = run_optimization(data, ga, FAST_NUISANCE, k=3, seed=0)
    assert np.array_equal(a.best.deltas, b.best.deltas)
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


def test_epsilon_by_size_layout(tmp_path):
    cfg = small_benchmark(methods=("ols",), replications=1, sizes=(120, 160))
    result = run_benchmark(cfg)
    path = tmp_path / "by_size.csv"
    write_epsilon_by_size(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "size,method,split,mean_epsilon,std_epsilon"
    assert len(lines) == 1 + 4  # two sizes x one method x two splits
    assert {line.split(",")[0] for line in lines[1:]} == {"120", "160"}


def test_small_writers(tmp_path):
    write_sweep_csv([0.0, 1.0], [2.5, 3.5], tmp_path / "sweep.csv")
    sweep = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert sweep == ["delta,psi_hat", "0.0,2.5", "1.0,3.5"]

    from stochint.genetic import GaTrace, InterventionVector

    write_best_delta_csv(InterventionVector(np.array([1.5, 2.0])),
                         tmp_path / "best.csv")
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
