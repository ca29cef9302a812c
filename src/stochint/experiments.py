"""Reproducible experiment drivers: error benchmarks, delta sweeps, searches.

Every run is a pure function of its configuration, and every file written
here uses shortest round-trip float formatting, so re-running a configuration
reproduces each output byte for byte.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    OP_DEFAULTS,
    DatasetError,
    DgpConfig,
    ObservationalDataset,
    generate_ihdp_like,
    generate_op_like,
    train_test_split,
)
from .effects import (
    NuisanceSpec,
    baseline_ols,
    cross_fit_records,
    epsilon_ate,
    estimate_ate_difference,
    expected_response_from_records,
    fit_per_arm_linear,
    ipwe_from_propensity,
    propensity_predictions,
)
from .genetic import GaConfig, GaTrace, InterventionVector, optimize_records
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
        return generate_op_like(n, seed, dgp or OP_DEFAULTS)
    raise DatasetError(f"unknown generator {generator!r}; choose from {GENERATORS}")


# ---------------------------------------------------------------------------
# error benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkConfig:
    """Replicated estimation-error benchmark settings.

    replicate_mode "dgp" redraws the dataset each replication; "seed" keeps
    one dataset fixed and varies only the split/fold seeds.
    """

    generator: str = "ihdp"
    n: int = 747
    d: int = 25
    dgp: DgpConfig | None = None
    methods: tuple[str, ...] = METHODS
    replications: int = 50
    test_fraction: float = 0.2
    folds: int = 5
    seed: int = 0
    replicate_mode: str = "dgp"
    sizes: tuple[int, ...] | None = None
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
        if self.replicate_mode not in ("dgp", "seed"):
            raise ValueError("replicate_mode must be 'dgp' or 'seed'")
        if self.sizes is not None:
            object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "methods", tuple(self.methods))


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


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    """Raw per-replication rows plus aggregated mean/std error tables."""

    config: BenchmarkConfig
    rows: tuple[ReplicationRow, ...]

    def aggregate(self, size: int) -> list[dict]:
        out = []
        for method in self.config.methods:
            for split in ("train", "test"):
                eps = [r.epsilon for r in self.rows
                       if r.size == size and r.method == method and r.split == split]
                out.append({
                    "method": method,
                    "split": split,
                    "mean_epsilon": float(np.mean(eps)),
                    "std_epsilon": float(np.std(eps)),
                })
        return out

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.config.sizes or (self.config.n,)


def _split_estimates(method: str, train: ObservationalDataset,
                     test: ObservationalDataset, cfg: BenchmarkConfig,
                     seed: int) -> tuple[float, float]:
    """Fit on train; estimate the average effect on both splits."""
    if method == "sie":
        ate_train = estimate_ate_difference(train, cfg.folds, seed, cfg.nuisance)
        full_model = fit_outcome(train, cfg.nuisance.outcome.config)
        contrast = full_model.predict(test.covariates, 1) \
            - full_model.predict(test.covariates, 0)
        return ate_train, float(np.mean(contrast))
    if method == "ols":
        model = fit_per_arm_linear(train)
        return (float(np.mean(model.contrast(train.covariates))),
                float(np.mean(model.contrast(test.covariates))))
    if method == "ipwe":
        (p_train, p_test), _ = propensity_predictions(
            cfg.nuisance.propensity, train, train, test, seed=seed)
        return (ipwe_from_propensity(train.treatments, train.outcomes, p_train),
                ipwe_from_propensity(test.treatments, test.outcomes, p_test))
    raise ValueError(f"unknown method {method!r}")


@contextmanager
def _replication(size: int, rep: int):
    """Prefix a FitError or ValueError raised inside with its replication."""
    try:
        yield
    except FitError as err:
        raise FitError(f"size {size} replication {rep}: {err}") from None
    except ValueError as err:
        raise ValueError(f"size {size} replication {rep}: {err}") from None


def _named_estimates(method: str, split: tuple, cfg: BenchmarkConfig,
                     ) -> tuple[float, float]:
    """_split_estimates on one (size, replication, seed, train, test) split."""
    size, rep, seed, train, test = split
    with _replication(size, rep):
        return _split_estimates(method, train, test, cfg, seed)


def run_benchmark(cfg: BenchmarkConfig) -> BenchmarkResult:
    """Replicated benchmark of absolute ATE error per method and split.

    Within a replication every method sees the same data and the same
    train/test split, so methods are compared pairwise.  Every split is
    built here, in (size, replication) order, and the ols and ipwe
    estimates are made here too: the last bits of their least-squares and
    Newton solves depend on the OpenBLAS thread count.  Then each
    replication's boosted sie estimate is one task for forked workers (see
    parallel.forked_map).  Estimates are placed by (size, replication,
    method), so no row depends on the worker count.

    Raises:
        FitError, ValueError: the first failing ols or ipwe estimate in
            (size, replication) order, else the first failing sie estimate;
            the message names the size and replication.
    """
    splits = []
    for size in cfg.sizes or (cfg.n,):
        fixed_data = None
        if cfg.replicate_mode == "seed":
            fixed_data = make_dataset(cfg.generator, size, cfg.d, cfg.seed, cfg.dgp)
        for rep in range(cfg.replications):
            rep_seed = cfg.seed + 1 + rep
            if fixed_data is None:
                data = make_dataset(cfg.generator, size, cfg.d, rep_seed, cfg.dgp)
            else:
                data = fixed_data
            splits.append((size, rep, rep_seed,
                           *train_test_split(data, cfg.test_fraction, rep_seed)))
    estimates = {(split[0], split[1], method): _named_estimates(method, split, cfg)
                 for split in splits for method in cfg.methods if method != "sie"}
    if "sie" in cfg.methods:
        def sie(split):
            return _named_estimates("sie", split, cfg)
        boosted = cfg.nuisance.outcome.config.kind == "boosted_trees"
        sie_estimates = forked_map(sie, splits) if boosted else map(sie, splits)
        for (size, rep, *_), est in zip(splits, sie_estimates):
            estimates[size, rep, "sie"] = est
    rows = []
    for size, rep, _, train, test in splits:
        truth = {"train": train.truth.ate, "test": test.truth.ate}
        for method in cfg.methods:
            for split, est in zip(("train", "test"), estimates[size, rep, method]):
                with _replication(size, rep):
                    epsilon = epsilon_ate(est, truth[split])
                rows.append(ReplicationRow(
                    size=size,
                    replication=rep,
                    method=method,
                    split=split,
                    estimate=est,
                    truth=truth[split],
                    epsilon=epsilon,
                ))
    return BenchmarkResult(config=cfg, rows=tuple(rows))


# ---------------------------------------------------------------------------
# genetic-search driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OptimizationRun:
    """Outputs of one genetic search plus reference-policy comparisons."""

    best: InterventionVector
    trace: GaTrace
    expected_best: float
    expected_status_quo: float
    expected_random: float
    fitness_best: float


def run_optimization(data: ObservationalDataset, ga: GaConfig | None = None,
                     nuisance: NuisanceSpec | None = None, k: int = 5,
                     seed: int = 0, snapshot_every: int = 0) -> OptimizationRun:
    """Cross-fit once, search per-unit deltas, and score reference policies.

    The status-quo policy is the all-ones vector (leave every propensity
    unchanged); the random policy is a fresh draw from the initial-population
    distribution.
    """
    cfg = ga or GaConfig()
    records, _ = cross_fit_records(data, k, seed, nuisance or NuisanceSpec())
    best, trace = optimize_records(records, cfg, snapshot_every)
    n = records.n
    lo, hi = cfg.bounds
    ones = np.clip(np.ones(n), lo, hi)
    rng = np.random.default_rng([cfg.seed, 1])
    random_policy = np.clip(rng.normal(cfg.init_mean, cfg.init_std, n), lo, hi)
    values = expected_response_from_records(
        records, np.stack([best.deltas, ones, random_policy]))
    return OptimizationRun(
        best=best,
        trace=trace,
        expected_best=float(values[0]),
        expected_status_quo=float(values[1]),
        expected_random=float(values[2]),
        fitness_best=float(trace.best_fitness[-1]),
    )


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _write_rows(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return str(float(value))
    return str(value)


def write_epsilon_table(result: BenchmarkResult, path: str | Path,
                        size: int | None = None) -> None:
    """Aggregated error table: method, split, mean_epsilon, std_epsilon."""
    size = size if size is not None else result.sizes[0]
    rows = [(a["method"], a["split"], a["mean_epsilon"], a["std_epsilon"])
            for a in result.aggregate(size)]
    _write_rows(path, ["method", "split", "mean_epsilon", "std_epsilon"], rows)


def write_epsilon_by_size(result: BenchmarkResult, path: str | Path) -> None:
    """Per-size aggregated error table for data-size sensitivity runs."""
    rows = []
    for size in result.sizes:
        for a in result.aggregate(size):
            rows.append((size, a["method"], a["split"],
                         a["mean_epsilon"], a["std_epsilon"]))
    _write_rows(path, ["size", "method", "split", "mean_epsilon", "std_epsilon"],
                rows)


def write_replications(result: BenchmarkResult, path: str | Path) -> None:
    """Raw per-replication error rows."""
    rows = [(r.size, r.replication, r.method, r.split,
             r.estimate, r.truth, r.epsilon) for r in result.rows]
    _write_rows(path, ["size", "replication", "method", "split",
                       "estimate", "truth", "epsilon"], rows)


def write_sweep_csv(deltas, psi_values, path: str | Path) -> None:
    """Delta-grid sweep table: delta, psi_hat."""
    rows = list(zip((float(d) for d in deltas),
                    (float(p) for p in psi_values)))
    _write_rows(path, ["delta", "psi_hat"], rows)


def write_best_delta_csv(vector: InterventionVector, path: str | Path) -> None:
    """Best per-unit deltas: unit_index, delta."""
    rows = [(i, float(v)) for i, v in enumerate(vector.deltas)]
    _write_rows(path, ["unit_index", "delta"], rows)


def write_trace_csv(trace: GaTrace, path: str | Path) -> None:
    """Fitness history: generation, best_fitness, mean_fitness."""
    rows = [(g, float(trace.best_fitness[g]), float(trace.mean_fitness[g]))
            for g in range(trace.generations)]
    _write_rows(path, ["generation", "best_fitness", "mean_fitness"], rows)


def write_json(payload: dict, path: str | Path) -> None:
    """Sorted-key JSON with a trailing newline; deterministic bytes."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
