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

import csv
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import FoldAssignment, ObservationalDataset, split_folds
from .nuisance import (
    BASIS_KINDS,
    FitError,
    OutcomeConfig,
    SolverConfig,
    fit_outcome,
    fit_propensity,
    make_basis,
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


def influence(q, m1, m0):
    """Influence value phi = q m1 + (1 - q) m0."""
    q = np.asarray(q, dtype=float)
    out = q * np.asarray(m1, dtype=float) + (1.0 - q) * np.asarray(m0, dtype=float)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# nuisance wiring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropensitySpec:
    """How the treatment probability enters estimation.

    mode "fit" trains the basis-logistic model; "oracle" reads
    GroundTruth.true_propensity; "constant" uses a fixed probability
    (useful for misspecification experiments).
    """

    mode: str = "fit"
    basis_kind: str = "polynomial2"
    rbf_centers: int = 20
    clip: float = 0.01
    constant: float | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.mode not in ("fit", "oracle", "constant"):
            raise ValueError(f"unknown propensity mode {self.mode!r}")
        if self.basis_kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
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

    One row per unit, in ascending unit order.  p_hat is None when the
    caller asked only for outcome predictions.
    """

    unit_index: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    p_hat: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.unit_index.shape[0]

    def require_p_hat(self) -> np.ndarray:
        if self.p_hat is None:
            raise ValueError("these records were built without propensity predictions")
        return self.p_hat


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
                           *eval_sets: ObservationalDataset, seed: int):
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
    basis = make_basis(spec.basis_kind, train.covariates,
                       n_centers=spec.rbf_centers, seed=seed)
    model = fit_propensity(train, basis, solver=spec.solver, clip=spec.clip)
    return [model.predict(ev.covariates) for ev in eval_sets], model


def _outcome_for(model, eval_data: ObservationalDataset):
    """Held-out (mu0, mu1, the model's training RMSE): the model's
    predictions, or oracle truth without one."""
    if model is None:
        if eval_data.truth is None:
            raise ValueError("oracle outcome requested but ground truth is absent")
        return eval_data.truth.mu0, eval_data.truth.mu1, None
    x = eval_data.covariates
    return model.predict(x, 0), model.predict(x, 1), _train_rmse(model)


def _train_rmse(model) -> float | None:
    """Mean final-round training RMSE of a boosted model; None if not recorded.

    Loaded models carry no training path, since it is not serialized.
    """
    path = model.train_rmse_path
    if not path or any(arr is None for arr in path.values()):
        return None
    return float(np.mean([arr[-1] for arr in path.values()]))


def _fit_outcomes(data: ObservationalDataset, folds: FoldAssignment,
                  config: OutcomeConfig, keep_models: bool) -> list:
    """Fit the outcome model of every fold and predict its held-out units.

    Returns one (model, mu0, mu1, training RMSE) tuple per fold, in fold
    order; model is None unless keep_models.  Boosted fits run in worker
    processes, one per usable CPU and at most one per fold; ridge fits take
    milliseconds and stay in this process.  Each result is placed by its
    fold index, so none depends on the worker count.  A worker predicts the
    held-out units itself and sends the model back only when it is kept:
    unpickling the 100-tree models here left about 2 MiB more resident.

    Raises:
        FitError: the first failing fold in fold order, named in the message.
    """
    def fit(fold):
        try:
            model = fit_outcome(data.subset(folds.complement(fold)), config)
        except FitError as err:
            raise FitError(f"fold {fold}: {err}") from None
        held_out = _outcome_for(model, data.subset(folds.indices(fold)))
        return (model if keep_models else None, *held_out)

    if config.kind != "boosted_trees":
        return [fit(fold) for fold in range(folds.k)]
    return forked_map(fit, range(folds.k))


def cross_fit_records(data: ObservationalDataset, k: int, seed: int,
                      nuisance: NuisanceSpec | None = None,
                      need_propensity: bool = True,
                      collect_models: list | None = None,
                      fold_models: list | None = None,
                      ) -> tuple[UnitRecords, tuple[FoldDiagnostics, ...]]:
    """Cross-fitted nuisance predictions for every unit.

    Folds come from split_folds(n, k, seed); each fold is predicted by models
    fit on its complement only, so no unit's outcome influences its own
    predictions.  Every fold's propensity is fit here, in fold order; then
    the k outcome models are fit at once (see _fit_outcomes).

    Args:
        collect_models: if a list is passed, one (propensity_model,
            outcome_model) pair per fold is appended to it (None entries for
            oracle/constant modes).
        fold_models: previously saved (PropensityModel, OutcomeModel) pairs,
            one per fold in fold order, fit against the same (n, k, seed)
            fold assignment.  When given, the loop predicts with them
            instead of fitting.

    Returns:
        (records, per-fold diagnostics), with records in ascending unit order.

    Raises:
        FitError: a fold's training complement lacks an arm or is otherwise
            unfittable; the message names the fold.
        ValueError: fold_models does not hold k pairs.
    """
    if fold_models is not None and len(fold_models) != k:
        raise ValueError(f"expected {k} fold model pairs, got {len(fold_models)}")
    spec = nuisance or NuisanceSpec()
    n = data.n_units
    folds = split_folds(n, k, seed)

    # subsets are built where they are used, so none outlives its fit
    if fold_models is None:
        p_models = [None] * k
        p_folds = [None] * k
        if need_propensity:
            for fold in range(k):
                try:
                    (p_folds[fold],), p_models[fold] = propensity_predictions(
                        spec.propensity, data.subset(folds.complement(fold)),
                        data.subset(folds.indices(fold)),
                        seed=1000003 * seed + fold,
                    )
                except FitError as err:
                    raise FitError(f"fold {fold}: {err}") from None
        o_models = [None] * k
    else:
        p_models = [p_model for p_model, _ in fold_models]
        o_models = [o_model for _, o_model in fold_models]
        p_folds = [p_model.predict(data.covariates[folds.indices(fold)])
                   for fold, p_model in enumerate(p_models)]
    if fold_models is None and spec.outcome.mode == "fit":
        outcomes = _fit_outcomes(data, folds, spec.outcome.config,
                                 keep_models=collect_models is not None)
    else:
        outcomes = [(model, *_outcome_for(model, data.subset(folds.indices(fold))))
                    for fold, model in enumerate(o_models)]
    p_hat = np.empty(n) if need_propensity else None
    mu0 = np.empty(n)
    mu1 = np.empty(n)
    diagnostics = []
    for fold, (p_model, (o_model, mu0_fold, mu1_fold, rmse)) in enumerate(
            zip(p_models, outcomes)):
        eval_idx = folds.indices(fold)
        train_t = data.treatments[folds.complement(fold)]
        if need_propensity:
            p_hat[eval_idx] = p_folds[fold]
        mu0[eval_idx], mu1[eval_idx] = mu0_fold, mu1_fold
        if collect_models is not None:
            collect_models.append((p_model, o_model))
        diagnostics.append(FoldDiagnostics(
            fold=fold,
            n_eval=eval_idx.shape[0],
            n_train=train_t.shape[0],
            n_train_treated=int(train_t.sum()),
            propensity_iterations=None if p_model is None else p_model.n_iter,
            propensity_grad_norm=None if p_model is None else p_model.grad_norm,
            outcome_train_rmse=rmse,
        ))
    records = UnitRecords(
        unit_index=np.arange(n, dtype=np.int64),
        treatments=data.treatments,
        outcomes=data.outcomes,
        mu0=mu0,
        mu1=mu1,
        p_hat=p_hat,
    )
    return records, tuple(diagnostics)


# ---------------------------------------------------------------------------
# estimators and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InfluenceTable:
    """Per-unit influence components, one row per unit in ascending order."""

    unit_index: np.ndarray
    q: np.ndarray
    m1: np.ndarray
    m0: np.ndarray
    phi: np.ndarray
    tau_plugin: np.ndarray


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Cross-fitted stochastic-intervention estimates for one delta.

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
    influence: InfluenceTable

    def to_dict(self) -> dict:
        """JSON-ready summary; the per-unit table is written separately."""
        return {
            "tau_ate_alg1": self.tau_ate_alg1,
            "tau_sie": self.tau_sie,
            "psi_hat": self.psi_hat,
            "delta": self.delta,
            "k": self.k,
            "seed": self.seed,
            "n_units": self.n_units,
            "mean_outcome": self.mean_outcome,
            "per_fold": [asdict(d) for d in self.per_fold],
        }


def write_influence_csv(table: InfluenceTable, path: str | Path) -> None:
    """Write the per-unit influence table as a CSV side-file."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit_index", "q", "m1", "m0", "phi", "tau_plugin"])
        for i in range(table.unit_index.shape[0]):
            writer.writerow([
                str(int(table.unit_index[i])),
                str(float(table.q[i])),
                str(float(table.m1[i])),
                str(float(table.m0[i])),
                str(float(table.phi[i])),
                str(float(table.tau_plugin[i])),
            ])


def _dr_terms(records: UnitRecords):
    """Checked p_hat and the arm terms m1, m0, none of which depend on delta."""
    p = _check_p_hat(records.require_p_hat())
    m1 = m_term(records.treatments, records.outcomes, records.mu1, p, 1)
    m0 = m_term(records.treatments, records.outcomes, records.mu0, p, 0)
    return p, m1, m0


def report_from_records(records: UnitRecords, delta: float, k: int, seed: int,
                        per_fold: tuple[FoldDiagnostics, ...] = (),
                        ) -> EstimateReport:
    """Assemble an EstimateReport from already cross-fitted records."""
    d = _check_delta(delta)
    if d.ndim != 0:
        raise ValueError("a scalar delta is required here")
    p, m1, m0 = _dr_terms(records)
    q = stochastic_propensity(p, float(d))
    phi = influence(q, m1, m0)
    tau_plugin = p * records.mu1 + (1.0 - p) * records.mu0
    return EstimateReport(
        tau_ate_alg1=float(np.mean(tau_plugin)),
        tau_sie=float(np.mean(phi - records.outcomes)),
        psi_hat=float(np.mean(phi)),
        delta=float(d),
        k=k,
        seed=seed,
        n_units=records.n,
        mean_outcome=float(np.mean(records.outcomes)),
        per_fold=per_fold,
        influence=InfluenceTable(
            unit_index=records.unit_index,
            q=q,
            m1=m1,
            m0=m0,
            phi=phi,
            tau_plugin=tau_plugin,
        ),
    )


def estimate_sie(data: ObservationalDataset, delta: float, k: int = 5,
                 seed: int = 0,
                 nuisance: NuisanceSpec | None = None) -> EstimateReport:
    """Cross-fitted influence-function estimate of the intervention effect.

    Args:
        data: observational sample.
        delta: intervention multiplier on the treatment odds (scalar >= 0).
        k: number of cross-fitting folds (>= 2).
        seed: governs fold assignment and any seeded basis construction.
        nuisance: propensity/outcome settings; defaults fit both.

    Returns:
        EstimateReport carrying the three aggregates, per-fold diagnostics,
        and the per-unit influence table.
    """
    records, diagnostics = cross_fit_records(data, k, seed, nuisance)
    return report_from_records(records, delta, k, seed, per_fold=diagnostics)


def estimate_ate_difference(data: ObservationalDataset, k: int = 5,
                            seed: int = 0,
                            nuisance: NuisanceSpec | None = None) -> float:
    """Cross-fitted outcome-model contrast mean(mu1_hat - mu0_hat).

    This is the treated-minus-control average effect used for benchmark
    error tables; it needs no propensity model.
    """
    records, _ = cross_fit_records(data, k, seed, nuisance,
                                   need_propensity=False)
    return float(np.mean(records.mu1 - records.mu0))


def expected_response_from_records(records: UnitRecords, deltas):
    """Mean influence value of one policy, or of each row of a policy array.

    deltas is either a per-unit vector of shape (n,), which gives a float, or
    a 2-d array with one policy per row, which gives one mean per row: a
    (P, n) stack of per-unit vectors, or a (G, 1) column of scalar deltas.
    m1 and m0 are built once per call.
    """
    d = _check_delta(deltas)
    n = records.n
    if d.shape != (n,) and not (d.ndim == 2 and d.shape[1] in (1, n)):
        raise ValueError(
            f"expected {n} per-unit deltas, a (P, {n}) stack or a (G, 1) "
            f"grid, got shape {d.shape}"
        )
    p, m1, m0 = _dr_terms(records)
    means = np.mean(influence(_q(p, d), m1, m0), axis=-1)
    return float(means) if d.ndim == 1 else means


def sweep_expected_outcome(data: ObservationalDataset, deltas, k: int = 5,
                           seed: int = 0,
                           nuisance: NuisanceSpec | None = None) -> np.ndarray:
    """psi_hat over a grid of scalar deltas, fitting nuisances only once."""
    records, _ = cross_fit_records(data, k, seed, nuisance)
    grid = np.asarray(deltas, dtype=float)
    if grid.ndim != 1:
        raise ValueError("delta grid must be 1-d")
    return expected_response_from_records(records, grid[:, None])


# ---------------------------------------------------------------------------
# baselines and metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PerArmLinearModel:
    """Least-squares linear regressions fit separately per arm."""

    coef0: np.ndarray
    coef1: np.ndarray
    used_ridge_fallback: bool = False

    def predict(self, x: np.ndarray, arm: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        coef = self.coef1 if arm == 1 else self.coef0
        return coef[0] + x @ coef[1:]

    def contrast(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x, 1) - self.predict(x, 0)


def _ls_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    n = x.shape[0]
    a = np.hstack([np.ones((n, 1)), x])
    coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank == a.shape[1]:
        return coef, False
    warnings.warn(
        "rank-deficient least-squares design; falling back to ridge 1e-8",
        RuntimeWarning,
        stacklevel=3,
    )
    d = np.eye(a.shape[1])
    d[0, 0] = 0.0
    coef = np.linalg.solve(a.T @ a + 1e-8 * n * d, a.T @ y)
    return coef, True


def fit_per_arm_linear(data: ObservationalDataset) -> PerArmLinearModel:
    """Ordinary least squares per arm, with a ridge fallback on deficiency."""
    t = data.treatments
    if t.min() == t.max():
        raise FitError("per-arm linear fit needs both arms present")
    coef0, fb0 = _ls_fit(data.covariates[t == 0], data.outcomes[t == 0])
    coef1, fb1 = _ls_fit(data.covariates[t == 1], data.outcomes[t == 1])
    return PerArmLinearModel(coef0=coef0, coef1=coef1,
                             used_ridge_fallback=fb0 or fb1)


def baseline_ols(data: ObservationalDataset, seed: int = 0) -> float:
    """Average treated-minus-control contrast of per-arm linear fits.

    The seed argument is accepted for interface uniformity; the fit itself
    is deterministic.
    """
    del seed
    model = fit_per_arm_linear(data)
    return float(np.mean(model.contrast(data.covariates)))


def ipwe_from_propensity(treatments, outcomes, p_hat) -> float:
    """Horvitz-Thompson contrast with the given (clipped) probabilities."""
    t = np.asarray(treatments, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    p = _check_p_hat(p_hat)
    return float(np.mean(t * y / p) - np.mean((1.0 - t) * y / (1.0 - p)))


def baseline_ipwe(data: ObservationalDataset,
                  nuisance: NuisanceSpec | None = None,
                  seed: int = 0) -> float:
    """Inverse-probability-weighted contrast with an in-sample propensity fit."""
    spec = (nuisance or NuisanceSpec()).propensity
    (p_hat,), _ = propensity_predictions(spec, data, data, seed=seed)
    return ipwe_from_propensity(data.treatments, data.outcomes, p_hat)


def epsilon_ate(estimate: float, truth: float) -> float:
    """Absolute estimation error |estimate - truth|."""
    est = float(estimate)
    tru = float(truth)
    if not (np.isfinite(est) and np.isfinite(tru)):
        raise ValueError("epsilon_ate needs finite inputs")
    return abs(est - tru)
