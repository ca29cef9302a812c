"""Stochastic-intervention effect estimation on observational data.

The intervention reweights a unit's treatment probability p into
q = delta p / (delta p + 1 - p); delta = 1 leaves the propensity unchanged,
delta = 0 forces control.  The population effect of applying delta is
estimated by the cross-fitted influence-function average

    psi_hat = mean_i [ q_i m1_i + (1 - q_i) m0_i ],

where m1/m0 are doubly-robust arm terms built from held-out nuisance
predictions.  Cross-fitting: units are split into k folds, nuisances are fit
on each fold's complement, and every unit is evaluated by models that never
saw it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import (
    ColumnSchema,
    FoldAssignment,
    ObservationalDataset,
    load_csv,
    split_folds,
    write_columns,
)
from .nuisance import (
    BASIS_KINDS,
    BasisExpansion,
    FitError,
    OutcomeConfig,
    RidgeModel,
    _fit_ridge,
    check_clip,
    check_l2_penalty,
    check_outcome_arms,
    fit_outcome,
    fit_propensity,
)
from .parallel import forked_map

# ---------------------------------------------------------------------------
# pointwise building blocks
# ---------------------------------------------------------------------------


def _check_delta(delta) -> np.ndarray:
    d = np.asarray(delta, dtype=float)
    if not np.isfinite(d).all() or (d < 0).any():
        raise ValueError("delta must be finite and >= 0")
    return d


def _check_p_hat(p_hat) -> np.ndarray:
    p = np.asarray(p_hat, dtype=float)
    if (p <= 0).any() or (p >= 1).any() or not np.isfinite(p).all():
        raise ValueError("p_hat must lie strictly inside (0, 1)")
    return p


def _q(p, d):
    """stochastic_propensity's arithmetic, for callers that checked p and d."""
    return d * p / (1.0 + (d - 1.0) * p)


def stochastic_propensity(p_hat, delta):
    """Reweighted treatment probability q = delta p / (delta p + 1 - p).

    Computed as delta p / (1 + (delta - 1) p), which makes the delta = 1
    identity exact in floating point.  Accepts scalars or arrays; broadcasts.

    Raises:
        ValueError: p_hat outside the open interval (0, 1), or delta
            negative/non-finite.
    """
    q = _q(_check_p_hat(p_hat), _check_delta(delta))
    if np.isscalar(p_hat) and np.isscalar(delta):
        return float(q)
    return q


def m_term(treatments, outcomes, mu_arm, p_hat, arm: int):
    """Doubly-robust arm term: indicator-weighted residual plus the plug-in.

    m_arm = 1[t = arm] (y - mu_arm) / (arm p + (1 - arm)(1 - p)) + mu_arm
    """
    if arm not in (0, 1):
        raise ValueError("arm must be 0 or 1")
    t = np.asarray(treatments)
    y = np.asarray(outcomes, dtype=float)
    mu = np.asarray(mu_arm, dtype=float)
    p = np.asarray(p_hat, dtype=float)
    denom = p if arm == 1 else 1.0 - p
    ind = (t == arm)
    resid = np.where(ind, (y - mu) / denom, 0.0)
    out = resid + mu
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# nuisance wiring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropensitySpec:
    """How the treatment probability enters estimation.

    mode "fit" trains the basis-logistic model, with penalty l2_penalty;
    "oracle" reads GroundTruth.true_propensity; "constant" uses a fixed
    probability (useful for misspecification experiments).
    """

    mode: str = "fit"
    basis_kind: str = "polynomial2"
    clip: float = 0.01
    constant: float | None = None
    l2_penalty: float = 1e-4

    def __post_init__(self):
        if self.mode not in ("fit", "oracle", "constant"):
            raise ValueError(f"unknown propensity mode {self.mode!r}")
        if self.basis_kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        check_clip(self.clip)
        check_l2_penalty(self.l2_penalty)
        if self.mode == "constant":
            if self.constant is None or not 0.0 < self.constant < 1.0:
                raise ValueError("constant mode needs a probability in (0, 1)")


@dataclass(frozen=True)
class OutcomeSpec:
    """How the outcome regression enters estimation ("fit" or "oracle")."""

    mode: str = "fit"
    config: OutcomeConfig = field(default_factory=OutcomeConfig)

    def __post_init__(self):
        if self.mode not in ("fit", "oracle"):
            raise ValueError(f"unknown outcome mode {self.mode!r}")


@dataclass(frozen=True)
class NuisanceSpec:
    """Bundle of propensity and outcome settings used by the estimators."""

    propensity: PropensitySpec = field(default_factory=PropensitySpec)
    outcome: OutcomeSpec = field(default_factory=OutcomeSpec)


@dataclass(frozen=True, eq=False)
class UnitRecords:
    """Held-out nuisance predictions joined with the observed sample.

    Row i is unit i of the sample.  Every influence value is computed by
    phi, from delta-free terms built once, on first use.
    """

    treatments: np.ndarray
    outcomes: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    p_hat: np.ndarray

    @property
    def n(self) -> int:
        return self.treatments.shape[0]

    # only perfbench/exact.py calls this; ROADMAP items 1 and 14 delete the two
    # together, so removing it alone breaks the benchmark's quality check
    def require_p_hat(self) -> np.ndarray:
        return self.p_hat

    @cached_property
    def arm_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Checked p_hat and the arm terms m1, m0, none of which depend on
        delta; a p_hat outside (0, 1) raises ValueError."""
        p = _check_p_hat(self.p_hat)
        m1 = m_term(self.treatments, self.outcomes, self.mu1, p, 1)
        m0 = m_term(self.treatments, self.outcomes, self.mu0, p, 0)
        return p, m1, m0

    @cached_property
    def tau_plugin(self) -> np.ndarray:
        """Per-unit plug-in p mu1 + (1 - p) mu0, with the checked p_hat."""
        p = self.arm_terms[0]
        return p * self.mu1 + (1.0 - p) * self.mu0

    def phi(self, deltas) -> np.ndarray:
        """Per-unit influence values q m1 + (1 - q) m0 under deltas, which
        are checked already and broadcast against the units.  This is the
        one place the influence value is computed."""
        p, m1, m0 = self.arm_terms
        q = _q(p, deltas)
        return q * m1 + (1.0 - q) * m0


@dataclass(frozen=True)
class FoldDiagnostics:
    """Per-fold bookkeeping from one cross-fitting pass."""

    fold: int
    n_eval: int
    n_train: int
    n_train_treated: int
    propensity_iterations: int | None = None
    propensity_grad_norm: float | None = None
    outcome_train_rmse: float | None = None


def propensity_predictions(spec: PropensitySpec, train: ObservationalDataset,
                           *eval_sets: ObservationalDataset):
    """Fit the propensity once on train and predict it on each evaluation set.

    Oracle mode reads each set's ground truth and constant mode fills in the
    configured probability; neither fits a model.

    Returns:
        (one prediction array per evaluation set, fitted model or None).
    """
    if spec.mode == "oracle":
        if any(ev.truth is None or ev.truth.true_propensity is None
               for ev in eval_sets):
            raise ValueError("oracle propensity requested but ground truth is absent")
        return [ev.truth.true_propensity for ev in eval_sets], None
    if spec.mode == "constant":
        return [np.full(ev.n_units, float(spec.constant)) for ev in eval_sets], None
    basis = BasisExpansion(spec.basis_kind, train.n_features)
    model = fit_propensity(train, basis, spec.l2_penalty, spec.clip)
    return [model.predict(ev.covariates) for ev in eval_sets], model


def _in_fold(fold: int, fit, *args, **kwargs):
    """fit(*args, **kwargs), with the fold named in a FitError's message."""
    try:
        return fit(*args, **kwargs)
    except FitError as err:
        raise FitError(f"fold {fold}: {err}") from None


def fold_diagnostics(folds: FoldAssignment, treatments: np.ndarray,
                     fits=None) -> tuple[FoldDiagnostics, ...]:
    """Per-fold sizes from the fold assignment, with each fold's fit diagnostics.

    fits holds one (propensity model or None, outcome training RMSE or None)
    pair per fold.  Without it, as for records read from a file, the
    model-only fields are None.
    """
    diagnostics = []
    for fold, (p_model, rmse) in enumerate(fits or [(None, None)] * folds.k):
        train_t = treatments[folds.complement(fold)]
        diagnostics.append(FoldDiagnostics(
            fold=fold,
            n_eval=folds.indices(fold).shape[0],
            n_train=train_t.shape[0],
            n_train_treated=int(train_t.sum()),
            propensity_iterations=None if p_model is None else p_model.n_iter,
            propensity_grad_norm=None if p_model is None else p_model.grad_norm,
            outcome_train_rmse=rmse,
        ))
    return tuple(diagnostics)


def cross_fit_records(data: ObservationalDataset, k: int, seed: int,
                      nuisance: NuisanceSpec | None = None,
                      ) -> tuple[UnitRecords, tuple[FoldDiagnostics, ...]]:
    """Cross-fitted nuisance predictions for every unit.

    Folds come from split_folds(n, k, seed); each fold is predicted by models
    fit on its complement only, so no unit's outcome influences its own
    predictions.  Missing oracle truth fails first, then every fold's arm
    sizes are checked, in fold order.
    Then one parallel.forked_map call runs one propensity task per fold, in
    fold order, ahead of one outcome task per (fold, arm), longest first by
    training rows: fold order was slower in 8 of 10 estimate-ihdp-10k pairs
    on 2 CPUs.  An arm-size or propensity failure thus names the lowest
    failing fold.  An outcome task sends back only its held-out predictions
    and training RMSE: unpickling the 100-tree models here left about 2 MiB
    more resident.

    Returns:
        (records, per-fold diagnostics), with records in ascending unit order.

    Raises:
        FitError: a fold's training complement lacks an arm or is otherwise
            unfittable; the message names the first failing fold.
        ValueError: oracle truth is requested but absent.
    """
    spec = nuisance or NuisanceSpec()
    cfg = spec.outcome.config
    oracle = spec.outcome.mode == "oracle"
    if oracle and data.truth is None:
        raise ValueError("oracle outcome requested but ground truth is absent")
    if spec.propensity.mode == "oracle" and (
            data.truth is None or data.truth.true_propensity is None):
        raise ValueError("oracle propensity requested but ground truth is absent")
    n = data.n_units
    folds = split_folds(n, k, seed)
    # task (fold, column) fills the fold's rows of (mu0, mu1, p_hat)[column]
    tasks, planned = [(fold, 2) for fold in range(k)], []
    for fold in range(k):
        sizes = np.bincount(data.treatments[folds.complement(fold)], minlength=2)
        if not oracle:
            _in_fold(fold, check_outcome_arms, sizes, cfg)
        planned += [(-int(sizes[arm]), fold, arm) for arm in (0, 1)]
    tasks += [(fold, arm) for _, fold, arm in sorted(planned)]

    def fit(task):
        """(held-out values of the task's column, the propensity model or
        the outcome training RMSE, or None where nothing was fitted)."""
        fold, column = task
        # subsets are built where they are used, so none outlives its fit
        train, eval_idx = data.subset(folds.complement(fold)), folds.indices(fold)
        if column == 2:
            (p,), model = _in_fold(fold, propensity_predictions, spec.propensity,
                                   train, data.subset(eval_idx))
            return p, model
        if oracle:
            return (data.truth.mu0, data.truth.mu1)[column][eval_idx], None
        model = _in_fold(fold, fit_outcome, train, cfg, column)
        rmse = None if cfg.kind == "ridge_linear" else model.train_rmse_[-1]
        return model.predict(data.covariates[eval_idx]), rmse

    mu0, mu1, p_hat = values = (np.empty(n), np.empty(n), np.empty(n))
    extras = [[] for _ in range(k)]  # per fold: propensity model, RMSEs in any order
    for (fold, column), (held_out, extra) in zip(tasks, forked_map(fit, tasks)):
        values[column][folds.indices(fold)] = held_out
        extras[fold].append(extra)
    fits = [(p_model, None if None in r else float(np.mean(r)))
            for p_model, *r in extras]
    records = UnitRecords(treatments=data.treatments, outcomes=data.outcomes,
                          mu0=mu0, mu1=mu1, p_hat=p_hat)
    return records, fold_diagnostics(folds, data.treatments, fits)


# ---------------------------------------------------------------------------
# the records file
# ---------------------------------------------------------------------------

RECORD_COLUMNS = ["unit_index", "fold", "treatment", "outcome", "p_hat", "mu0", "mu1"]

# load_csv reads the unit index, fold and p_hat as covariates and mu0, mu1 as
# ground truth, so p_hat, like mu0 and mu1, need only be finite there
_RECORD_SCHEMA = ColumnSchema(treatment="treatment", outcome="outcome",
                              covariates=("unit_index", "fold", "p_hat"),
                              mu0="mu0", mu1="mu1")


def write_records_csv(records: UnitRecords, folds: FoldAssignment,
                      path: str | Path) -> None:
    """Write each unit's held-out predictions, with its fold, as a CSV.

    Floats are written in their shortest round-trip form, so
    read_records_csv gets every value back bit for bit.
    """
    write_columns(path, RECORD_COLUMNS,
                  [np.arange(records.n), folds.fold_of_unit, records.treatments,
                   records.outcomes, records.p_hat, records.mu0, records.mu1])


def read_records_csv(path: str | Path, data: ObservationalDataset,
                     folds: FoldAssignment) -> UnitRecords:
    """Read a write_records_csv file as the held-out records of data.

    The file must hold data's units in order, with data's treatments and
    outcomes and with folds as its fold column: only then was each unit's
    row predicted by models that never saw it under this fold assignment.

    Raises:
        ValueError: the file is missing, lacks a column, has a bad cell, or
            fails one of the checks above.
    """
    table = load_csv(path, _RECORD_SCHEMA)
    n = data.n_units
    unit_index, fold, p_hat = table.covariates.T
    if not np.array_equal(unit_index, np.arange(n)):
        raise ValueError(f"its unit_index column must be the data's units "
                         f"0..{n - 1} in order, one per row; it has {table.n_units} rows")
    if not (np.array_equal(table.treatments, data.treatments)
            and np.array_equal(table.outcomes, data.outcomes)):
        raise ValueError("its treatments or outcomes differ from the data's")
    if not np.array_equal(fold, folds.fold_of_unit):
        raise ValueError(
            f"its fold column is not this run's split into {folds.k} folds, so "
            "its predictions are not held out for them (another k or seed?)")
    return UnitRecords(treatments=table.treatments, outcomes=table.outcomes,
                       mu0=table.truth.mu0, mu1=table.truth.mu1,
                       p_hat=np.ascontiguousarray(p_hat))


# ---------------------------------------------------------------------------
# estimators and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Cross-fitted stochastic-intervention estimates for one delta.

    Its fields are report.json's keys; the per-unit values behind them come
    from the records (UnitRecords.phi, arm_terms and tau_plugin).
    tau_ate_alg1 is the propensity-weighted average of predicted outcomes,
    mean(p mu1 + (1 - p) mu0); it is not the treated-minus-control contrast
    (see estimate_ate_difference for that).  tau_sie = psi_hat - mean(y).
    """

    tau_ate_alg1: float
    tau_sie: float
    psi_hat: float
    delta: float
    k: int
    seed: int
    n_units: int
    mean_outcome: float
    per_fold: tuple[FoldDiagnostics, ...]


def _check_scalar_delta(delta) -> float:
    d = _check_delta(delta)
    if d.ndim != 0:
        raise ValueError("a scalar delta is required here")
    return float(d)


def write_influence_csv(records: UnitRecords, delta: float,
                        path: str | Path) -> None:
    """Write each unit's influence terms under a scalar delta as a CSV."""
    delta = _check_scalar_delta(delta)
    p, m1, m0 = records.arm_terms
    write_columns(path, ["unit_index", "q", "m1", "m0", "phi", "tau_plugin"],
                  [np.arange(records.n), _q(p, delta), m1, m0,
                   records.phi(delta), records.tau_plugin])


def report_from_records(records: UnitRecords, delta: float, k: int, seed: int,
                        per_fold: tuple[FoldDiagnostics, ...] = (),
                        ) -> EstimateReport:
    """Assemble an EstimateReport from already cross-fitted records."""
    d = _check_scalar_delta(delta)
    phi = records.phi(d)
    return EstimateReport(
        tau_ate_alg1=float(np.mean(records.tau_plugin)),
        tau_sie=float(np.mean(phi - records.outcomes)),
        psi_hat=float(np.mean(phi)),
        delta=d,
        k=k,
        seed=seed,
        n_units=records.n,
        mean_outcome=float(np.mean(records.outcomes)),
        per_fold=per_fold,
    )


def estimate_sie(data: ObservationalDataset, delta: float, k: int = 5,
                 seed: int = 0,
                 nuisance: NuisanceSpec | None = None) -> EstimateReport:
    """Cross-fitted influence-function estimate of the intervention effect.

    Args:
        data: observational sample.
        delta: intervention multiplier on the treatment odds (scalar >= 0).
        k: number of cross-fitting folds (>= 2).
        seed: governs fold assignment.
        nuisance: propensity/outcome settings; defaults fit both.

    Returns:
        EstimateReport carrying the three aggregates and per-fold
        diagnostics; per-unit values come from cross_fit_records' records.
    """
    records, diagnostics = cross_fit_records(data, k, seed, nuisance)
    return report_from_records(records, delta, k, seed, per_fold=diagnostics)


def estimate_ate_difference(data: ObservationalDataset, k: int = 5,
                            seed: int = 0,
                            nuisance: NuisanceSpec | None = None) -> float:
    """Cross-fitted outcome-model contrast mean(mu1_hat - mu0_hat).

    This is the treated-minus-control average effect used for benchmark
    error tables; it reads no propensity, so a constant one stands in.
    """
    spec = replace(nuisance or NuisanceSpec(),
                   propensity=PropensitySpec(mode="constant", constant=0.5))
    records, _ = cross_fit_records(data, k, seed, spec)
    return float(np.mean(records.mu1 - records.mu0))


def expected_response_from_records(records: UnitRecords, deltas) -> float:
    """Mean influence value of one policy: a scalar delta for every unit, or
    a per-unit vector of shape (n,).  m1 and m0 are built once per records,
    so a sweep is one call per delta."""
    d = _check_delta(deltas)
    if d.shape not in ((), (records.n,)):
        raise ValueError(f"expected a scalar delta or {records.n} per-unit "
                         f"deltas, got shape {d.shape}")
    return float(np.mean(records.phi(d)))


# ---------------------------------------------------------------------------
# baselines and metrics
# ---------------------------------------------------------------------------


def _ls_fit(x: np.ndarray, y: np.ndarray) -> RidgeModel:
    a = BasisExpansion("raw", x.shape[1]).expand(x)
    coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank == a.shape[1]:
        return RidgeModel(coef=coef)
    warnings.warn(
        "rank-deficient least-squares design; falling back to ridge 1e-8",
        RuntimeWarning,
        stacklevel=3,
    )
    return _fit_ridge(x, y, 1e-8)


def fit_per_arm_linear(data: ObservationalDataset) -> tuple[RidgeModel, RidgeModel]:
    """Ordinary least squares per arm, with a ridge fallback on deficiency.

    Returns:
        (control-arm model, treated-arm model).
    """
    t = data.treatments
    if t.min() == t.max():
        raise FitError("per-arm linear fit needs both arms present")
    x, y = data.covariates, data.outcomes
    return _ls_fit(x[t == 0], y[t == 0]), _ls_fit(x[t == 1], y[t == 1])


def ipwe_from_propensity(treatments, outcomes, p_hat) -> float:
    """Horvitz-Thompson contrast with the given (clipped) probabilities."""
    t = np.asarray(treatments, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    p = _check_p_hat(p_hat)
    return float(np.mean(t * y / p) - np.mean((1.0 - t) * y / (1.0 - p)))


def epsilon_ate(estimate: float, truth: float) -> float:
    """Absolute estimation error |estimate - truth|."""
    est = float(estimate)
    tru = float(truth)
    if not (np.isfinite(est) and np.isfinite(tru)):
        raise ValueError("epsilon_ate needs finite inputs")
    return abs(est - tru)
