"""Reproducible experiment drivers: error benchmarks, delta sweeps, searches.

Every run is a pure function of its configuration, and every file written
here uses shortest round-trip float formatting, so re-running a configuration
reproduces each output byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import (
    DatasetError,
    DgpConfig,
    ObservationalDataset,
    generate_ihdp_like,
    generate_op_like,
    train_test_split,
    write_columns,
)
from .effects import (
    NuisanceSpec,
    cross_fit_records,
    epsilon_ate,
    estimate_ate_difference,
    expected_response_from_records,
    fit_per_arm_linear,
    ipwe_from_propensity,
    propensity_predictions,
)
from .genetic import GaConfig, GaTrace, optimize_records, random_policies
from .nuisance import FitError, fit_outcome
from .parallel import forked_map

METHODS = ("sie", "ols", "ipwe")
GENERATORS = ("ihdp", "op")


def make_dataset(generator: str, n: int, d: int, seed: int,
                 dgp: DgpConfig | None = None) -> ObservationalDataset:
    """Dispatch to a synthetic generator by name."""
    if generator == "ihdp":
        return generate_ihdp_like(n, d, seed, dgp)
    if generator == "op":
        return generate_op_like(n, seed, dgp)
    raise DatasetError(f"unknown generator {generator!r}; choose from {GENERATORS}")


# ---------------------------------------------------------------------------
# error benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkConfig:
    """Replicated estimation-error benchmark settings; each replication
    draws its own dataset."""

    generator: str = "ihdp"
    n: int = 747
    d: int = 25
    dgp: DgpConfig | None = None
    methods: tuple[str, ...] = METHODS
    replications: int = 50
    test_fraction: float = 0.2
    folds: int = 5
    seed: int = 0
    nuisance: NuisanceSpec = field(default_factory=NuisanceSpec)

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {METHODS}")
        if not self.methods:
            raise ValueError("need at least one method")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.folds < 2:  # refused even where no method cross-fits
            raise ValueError("folds must be >= 2")
        if not 0.0 < self.test_fraction < 1.0:  # NaN included
            raise ValueError("test_fraction must lie in (0, 1)")
        if self.nuisance.outcome.mode == "oracle":
            raise ValueError("benchmark refuses outcome mode 'oracle': sie's "
                             "test-split estimate comes from fitted models")
        object.__setattr__(self, "methods", tuple(self.methods))
        repeated = [m for i, m in enumerate(self.methods) if m in self.methods[:i]]
        if repeated:  # a repeat would run, and write, its rows twice
            raise ValueError(f"methods lists {repeated[0]} more than once")


@dataclass(frozen=True)
class ReplicationRow:
    """One method's error on one split of one replication."""

    size: int
    replication: int
    method: str
    split: str
    estimate: float
    truth: float
    epsilon: float


def aggregate(rows: tuple[ReplicationRow, ...]) -> list[dict]:
    """Mean and std error per method and split, with methods in row order,
    which run_benchmark makes cfg.methods order."""
    out = []
    for method in dict.fromkeys(r.method for r in rows):
        for split in ("train", "test"):
            eps = [r.epsilon for r in rows if r.method == method and r.split == split]
            out.append({
                "method": method,
                "split": split,
                "mean_epsilon": float(np.mean(eps)),
                "std_epsilon": float(np.std(eps)),
            })
    return out


def _split_estimates(method: str, seed: int, train: ObservationalDataset,
                     test: ObservationalDataset, cfg: BenchmarkConfig,
                     ) -> tuple[float, float]:
    """Fit on the train side of one replication's split; estimate the
    average effect on both sides."""
    if method == "sie":
        ate_train = estimate_ate_difference(train, cfg.folds, seed, cfg.nuisance)
        model0, model1 = (fit_outcome(train, cfg.nuisance.outcome.config, arm)
                          for arm in (0, 1))
        x = test.covariates
        return ate_train, float(np.mean(model1.predict(x) - model0.predict(x)))
    if method == "ols":
        model0, model1 = fit_per_arm_linear(train)
        return tuple(float(np.mean(model1.predict(x) - model0.predict(x)))
                     for x in (train.covariates, test.covariates))
    if method == "ipwe":
        (p_train, p_test), _ = propensity_predictions(
            cfg.nuisance.propensity, train, train, test)
        return (ipwe_from_propensity(train.treatments, train.outcomes, p_train),
                ipwe_from_propensity(test.treatments, test.outcomes, p_test))
    raise ValueError(f"unknown method {method!r}")


def _replication_rows(cfg: BenchmarkConfig, rep: int) -> list[ReplicationRow]:
    """Draw one replication's data, split it, and score every method on it."""
    seed = cfg.seed + 1 + rep
    rows = []
    try:
        data = make_dataset(cfg.generator, cfg.n, cfg.d, seed, cfg.dgp)
        train, test = train_test_split(data, cfg.test_fraction, seed)
        truth = {"train": train.truth.ate, "test": test.truth.ate}
        for method in cfg.methods:
            for side, est in zip(("train", "test"),
                                 _split_estimates(method, seed, train, test, cfg)):
                rows.append(ReplicationRow(cfg.n, rep, method, side, est, truth[side],
                                           epsilon_ate(est, truth[side])))
    except (FitError, ValueError) as err:  # the message names the replication
        cls = next(c for c in (FitError, DatasetError, ValueError) if isinstance(err, c))
        raise cls(f"size {cfg.n} replication {rep}: {err}") from None
    return rows


def run_benchmark(cfg: BenchmarkConfig) -> tuple[ReplicationRow, ...]:
    """Replicated benchmark of absolute ATE error per method and split.

    Within a replication every method sees the same data and the same
    train/test split, so methods are compared pairwise.  Each replication
    is one parallel.forked_map task, whose rows are placed in (replication,
    method) order, so no row depends on the worker count.

    Raises:
        FitError, DatasetError, ValueError: the first failing replication,
            with methods in cfg.methods order, as the first of these its
            error is; the message names the size and replication.
    """
    rows = forked_map(lambda rep: _replication_rows(cfg, rep),
                      range(cfg.replications))
    return tuple(row for rep in rows for row in rep)


# ---------------------------------------------------------------------------
# genetic-search driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OptimizationRun:
    """Outputs of one genetic search plus reference-policy comparisons;
    the fields other than best and trace are comparison.json's keys."""

    best: np.ndarray
    trace: GaTrace
    expected_best: float
    expected_status_quo: float
    expected_random: float
    fitness_best: float
    improvement_vs_status_quo: float


def run_optimization(data: ObservationalDataset, ga: GaConfig | None = None,
                     nuisance: NuisanceSpec | None = None, k: int = 5,
                     seed: int = 0) -> OptimizationRun:
    """Cross-fit once, search per-unit deltas, and score reference policies.

    The status-quo policy is the all-ones vector, whatever the bounds (leave
    every propensity unchanged); the random policy is random_policies' draw,
    the initial population's, from default_rng([ga.seed, 1]).
    """
    cfg = ga or GaConfig()
    records, _ = cross_fit_records(data, k, seed, nuisance or NuisanceSpec())
    best, trace = optimize_records(records, cfg)
    random_policy = random_policies(records.n, cfg, np.random.default_rng([cfg.seed, 1]))
    expected_best, status_quo, expected_random = (
        expected_response_from_records(records, deltas)
        for deltas in (best, np.ones(records.n), random_policy))
    return OptimizationRun(best, trace, expected_best, status_quo, expected_random,
                           fitness_best=float(trace.best_fitness[-1]),
                           improvement_vs_status_quo=expected_best - status_quo)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def write_epsilon_table(rows: tuple[ReplicationRow, ...], path: str | Path) -> None:
    """Error table: method, split, mean_epsilon, std_epsilon."""
    header = ["method", "split", "mean_epsilon", "std_epsilon"]
    table = aggregate(rows)
    write_columns(path, header, [np.array([a[key] for a in table]) for key in header])


def write_replications(rows: tuple[ReplicationRow, ...], path: str | Path) -> None:
    """Raw per-replication error rows, one column per ReplicationRow field."""
    header = [f.name for f in fields(ReplicationRow)]
    write_columns(path, header, [np.array([getattr(r, name) for r in rows])
                                 for name in header])


def write_sweep_csv(deltas, psi_values, path: str | Path) -> None:
    """Delta-grid sweep table: delta, psi_hat."""
    write_columns(path, ["delta", "psi_hat"], [np.asarray(deltas, dtype=float),
                                               np.asarray(psi_values, dtype=float)])


def write_best_delta_csv(deltas: np.ndarray, path: str | Path) -> None:
    """Best per-unit deltas: unit_index, delta."""
    deltas = np.asarray(deltas, dtype=float)
    write_columns(path, ["unit_index", "delta"], [np.arange(len(deltas)), deltas])


def write_trace_csv(trace: GaTrace, path: str | Path) -> None:
    """Fitness history: generation, best_fitness, mean_fitness."""
    write_columns(path, ["generation", "best_fitness", "mean_fitness"],
                  [np.arange(trace.generations), trace.best_fitness,
                   trace.mean_fitness])


def write_json(payload: dict, path: str | Path) -> None:
    """Sorted-key JSON with a trailing newline; deterministic bytes.  A payload
    holding NaN or infinity, which are not JSON, is refused before any write."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")
