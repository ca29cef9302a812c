"""Nuisance models: basis-expanded logistic propensity and outcome regressions.

The propensity model is a logistic regression on a nonlinear basis expansion,
fit by damped Newton iterations on the L2-regularized mean negative
log-likelihood.  Outcome models are either gradient-boosted trees (default)
or ridge regression, fit per arm unless a joint model over (x, t) is asked
for.  Both model families serialize to JSON with an explicit version field.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import ObservationalDataset, sigmoid
from .trees import GradientBoostedRegressor

SERIALIZATION_VERSION = 1

BASIS_KINDS = ("raw", "polynomial2", "rbf")
# widest polynomial2 basis (d <= 61): each Newton step of the propensity fit
# solves a system of this many unknowns, 5,151 at d = 100
MAX_POLYNOMIAL2_COLUMNS = 2000
OUTCOME_KINDS = ("boosted_trees", "ridge_linear")


class FitError(RuntimeError):
    """Raised when a nuisance model cannot be fit as configured."""


# ---------------------------------------------------------------------------
# basis expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BasisExpansion:
    """A fixed feature map x -> g(x) with a leading intercept component.

    kinds:
        raw:          [1, x_1, ..., x_d]
        polynomial2:  [1, x_1..x_d, x_i * x_j for i <= j]
        rbf:          [1, exp(-||x - c_r||^2 / (2 scale^2))] over centers c_r
    """

    kind: str
    n_inputs: int
    centers: np.ndarray | None = None
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "rbf":
            if self.centers is None or self.scale is None:
                raise ValueError("rbf basis requires centers and scale")
            c = np.ascontiguousarray(np.asarray(self.centers, dtype=float))
            if c.ndim != 2 or c.shape[1] != self.n_inputs:
                raise ValueError("rbf centers must be (n_centers, n_inputs)")
            c.flags.writeable = False
            object.__setattr__(self, "centers", c)
            if not self.scale > 0:
                raise ValueError("rbf scale must be > 0")
        if self.kind == "polynomial2" and self.output_dim > MAX_POLYNOMIAL2_COLUMNS:
            raise ValueError(
                f"a polynomial2 basis on {self.n_inputs} covariates has "
                f"{self.output_dim} columns, more than {MAX_POLYNOMIAL2_COLUMNS}; "
                "use the raw or rbf basis")

    @property
    def output_dim(self) -> int:
        if self.kind == "raw":
            return 1 + self.n_inputs
        if self.kind == "polynomial2":
            d = self.n_inputs
            return 1 + d + d * (d + 1) // 2
        return 1 + self.centers.shape[0]

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Map (n, d) covariates to the (n, output_dim) design matrix."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.n_inputs:
            raise ValueError(f"expected (n, {self.n_inputs}) input, got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("basis input must be finite")
        n, d = x.shape
        if self.kind == "raw":
            return np.hstack([np.ones((n, 1)), x])
        if self.kind == "polynomial2":
            cols = [np.ones((n, 1)), x]
            for i in range(d):
                cols.append(x[:, i:] * x[:, i][:, None])
            return np.hstack(cols)
        sq = ((x[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2)
        return np.hstack([np.ones((n, 1)), np.exp(-sq / (2.0 * self.scale ** 2))])


def make_rbf_basis(x: np.ndarray, n_centers: int, seed: int,
                   n_iter: int = 10) -> BasisExpansion:
    """Build an RBF basis with k-means centers from a covariate subsample."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n_centers < 1 or n_centers > n:
        raise ValueError("need 1 <= n_centers <= n")
    rng = np.random.default_rng(seed)
    sample = x[rng.choice(n, size=min(n, 512), replace=False)]
    centers = sample[rng.choice(sample.shape[0], size=n_centers, replace=False)].copy()
    for _ in range(n_iter):
        dist = ((sample[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        label = np.argmin(dist, axis=1)
        for r in range(n_centers):
            members = sample[label == r]
            if members.shape[0]:
                centers[r] = members.mean(axis=0)
    dist = ((sample[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    scale = float(np.sqrt(np.median(dist.min(axis=1)) + 1e-12))
    if scale <= 0:
        scale = 1.0
    return BasisExpansion(kind="rbf", n_inputs=d, centers=centers, scale=scale)


def make_basis(kind: str, x: np.ndarray, n_centers: int = 20,
               seed: int = 0) -> BasisExpansion:
    """Construct a basis of the given kind for covariates shaped like x."""
    x = np.asarray(x, dtype=float)
    if kind == "rbf":
        return make_rbf_basis(x, n_centers=min(n_centers, x.shape[0]), seed=seed)
    return BasisExpansion(kind=kind, n_inputs=x.shape[1])


# ---------------------------------------------------------------------------
# propensity model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver settings for the propensity fit."""

    l2_penalty: float = 1e-4
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if self.l2_penalty <= 0:
            raise ValueError("l2_penalty must be > 0")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be > 0 and max_iter >= 1")


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Fitted basis-logistic treatment model with prediction clipping."""

    beta: np.ndarray
    basis: BasisExpansion
    clip: float = 0.01
    n_iter: int = 0
    grad_norm: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.clip < 0.5:
            raise ValueError("clip must lie in (0, 0.5)")
        b = np.ascontiguousarray(np.asarray(self.beta, dtype=float))
        if b.shape != (self.basis.output_dim,):
            raise ValueError("beta length must equal basis output_dim")
        b.flags.writeable = False
        object.__setattr__(self, "beta", b)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Clipped treatment probabilities for covariate rows x."""
        p = sigmoid(self.basis.expand(x) @ self.beta)
        return np.clip(p, self.clip, 1.0 - self.clip)


def _penalized_nll(g: np.ndarray, t: np.ndarray, beta: np.ndarray,
                   lam: float) -> float:
    z = g @ beta
    # mean log(1 + exp(z)) - t z, computed without overflow
    return float(np.mean(np.logaddexp(0.0, z) - t * z) + 0.5 * lam * np.dot(beta, beta))


def propensity_gradient(g: np.ndarray, t: np.ndarray, beta: np.ndarray,
                        lam: float) -> np.ndarray:
    """Gradient of the regularized mean negative log-likelihood."""
    p = sigmoid(g @ beta)
    return g.T @ (p - t) / g.shape[0] + lam * beta


def fit_propensity(data: ObservationalDataset, basis: BasisExpansion,
                   solver: SolverConfig | None = None,
                   clip: float = 0.01) -> PropensityModel:
    """Fit the basis-logistic propensity model by damped Newton iterations.

    Args:
        data: observational sample; both arms must be present.
        basis: feature map applied to the covariates.
        solver: penalty/tolerance settings (SolverConfig defaults).
        clip: prediction floor/ceiling, in (0, 0.5).

    Returns:
        PropensityModel with convergence diagnostics attached.

    Raises:
        FitError: single-arm data, or gradient norm above tolerance after
            max_iter iterations.
    """
    cfg = solver or SolverConfig()
    t = data.treatments.astype(float)
    if t.min() == t.max():
        raise FitError("propensity fit needs both treated and control units")
    g = basis.expand(data.covariates)
    n, s = g.shape
    lam = cfg.l2_penalty
    beta = np.zeros(s)
    obj = _penalized_nll(g, t, beta, lam)
    grad = propensity_gradient(g, t, beta, lam)
    n_iter = 0
    for n_iter in range(1, cfg.max_iter + 1):
        gn = float(np.linalg.norm(grad))
        if gn <= cfg.tol:
            n_iter -= 1
            break
        p = sigmoid(g @ beta)
        w = p * (1.0 - p)
        hess = g.T @ (g * w[:, None]) / n + lam * np.eye(s)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        alpha = 1.0
        while alpha >= 2.0 ** -40:
            candidate = beta - alpha * step
            cand_obj = _penalized_nll(g, t, candidate, lam)
            if cand_obj <= obj:
                beta, obj = candidate, cand_obj
                break
            alpha *= 0.5
        else:
            # no decrease found along the Newton direction; stop and report
            break
        grad = propensity_gradient(g, t, beta, lam)
    gn = float(np.linalg.norm(grad))
    if gn > cfg.tol:
        raise FitError(
            f"propensity solver did not converge: gradient norm {gn:.3e} "
            f"after {n_iter} iterations (tol {cfg.tol:.1e})"
        )
    return PropensityModel(beta=beta, basis=basis, clip=clip,
                           n_iter=n_iter, grad_norm=gn)


# ---------------------------------------------------------------------------
# outcome models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeConfig:
    """Outcome regression settings.

    kind: "boosted_trees" (default) or "ridge_linear".
    joint: False fits one model per arm; True fits a single model on (x, t).
    min_arm_size: smallest arm allowed for per-arm fitting.
    """

    kind: str = "boosted_trees"
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    ridge_penalty: float = 1e-6
    joint: bool = False
    min_arm_size: int = 10

    def __post_init__(self):
        if self.kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        if self.ridge_penalty <= 0:
            raise ValueError("ridge_penalty must be > 0")
        if self.min_arm_size < 1:
            raise ValueError("min_arm_size must be >= 1")


@dataclass(frozen=True, eq=False)
class RidgeModel:
    """Linear model with intercept; only slope coefficients are penalized."""

    coef: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.coef[0] + x @ self.coef[1:]

    def to_dict(self) -> dict:
        return {"coef": self.coef.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "RidgeModel":
        return cls(coef=np.asarray(payload["coef"], dtype=float))


def _fit_ridge(x: np.ndarray, y: np.ndarray, penalty: float) -> RidgeModel:
    n = x.shape[0]
    a = np.hstack([np.ones((n, 1)), x])
    d = np.eye(a.shape[1])
    d[0, 0] = 0.0
    lhs = a.T @ a / n + penalty * d
    rhs = a.T @ y / n
    try:
        coef = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        coef = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return RidgeModel(coef=coef)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Fitted outcome regression, routed per arm or joint over (x, t)."""

    config: OutcomeConfig
    arm_models: dict | None = None
    joint_model: object | None = None

    def predict(self, x: np.ndarray, arm: int) -> np.ndarray:
        """Predicted mean outcome under the given arm for covariate rows x."""
        if arm not in (0, 1):
            raise ValueError("arm must be 0 or 1")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if self.config.joint:
            xt = np.hstack([x, np.full((x.shape[0], 1), float(arm))])
            return self.joint_model.predict(xt)
        return self.arm_models[arm].predict(x)

    @property
    def train_rmse_path(self) -> dict:
        """Per-round training RMSE of each boosted submodel (diagnostics)."""
        if self.config.kind != "boosted_trees":
            return {}
        if self.config.joint:
            return {"joint": self.joint_model.train_rmse_}
        return {arm: m.train_rmse_ for arm, m in self.arm_models.items()}


def _fit_single(x: np.ndarray, y: np.ndarray, cfg: OutcomeConfig):
    if cfg.kind == "ridge_linear":
        return _fit_ridge(x, y, cfg.ridge_penalty)
    model = GradientBoostedRegressor(
        n_trees=cfg.n_trees, max_depth=cfg.max_depth, learning_rate=cfg.learning_rate
    )
    return model.fit(x, y)


def fit_outcome(data: ObservationalDataset,
                config: OutcomeConfig | None = None) -> OutcomeModel:
    """Fit the outcome regression mu(x, t).

    Per-arm mode fits one regression per treatment arm; joint mode appends the
    treatment indicator as an extra input column.

    Raises:
        FitError: an arm has fewer than ``config.min_arm_size`` units in
            per-arm mode, or an arm is empty in joint mode.
    """
    cfg = config or OutcomeConfig()
    x, t, y = data.covariates, data.treatments, data.outcomes
    n0 = int((t == 0).sum())
    n1 = int((t == 1).sum())
    if cfg.joint:
        if n0 == 0 or n1 == 0:
            raise FitError("joint outcome fit needs both arms present")
        xt = np.hstack([x, t[:, None].astype(float)])
        return OutcomeModel(config=cfg, joint_model=_fit_single(xt, y, cfg))
    for arm, size in ((0, n0), (1, n1)):
        if size < cfg.min_arm_size:
            raise FitError(
                f"arm {arm} has {size} units, fewer than min_arm_size="
                f"{cfg.min_arm_size}; per-arm outcome fit refused"
            )
    return OutcomeModel(
        config=cfg,
        arm_models={
            0: _fit_single(x[t == 0], y[t == 0], cfg),
            1: _fit_single(x[t == 1], y[t == 1], cfg),
        },
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _basis_to_dict(basis: BasisExpansion) -> dict:
    payload = {"kind": basis.kind, "n_inputs": basis.n_inputs}
    if basis.kind == "rbf":
        payload["centers"] = basis.centers.tolist()
        payload["scale"] = basis.scale
    return payload


def _basis_from_dict(payload: dict) -> BasisExpansion:
    if payload["kind"] == "rbf":
        return BasisExpansion(
            kind="rbf",
            n_inputs=int(payload["n_inputs"]),
            centers=np.asarray(payload["centers"], dtype=float),
            scale=float(payload["scale"]),
        )
    return BasisExpansion(kind=payload["kind"], n_inputs=int(payload["n_inputs"]))


def model_to_dict(model) -> dict:
    """Serialize a propensity or outcome model to a plain JSON-ready dict."""
    if isinstance(model, PropensityModel):
        return {
            "version": SERIALIZATION_VERSION,
            "model_type": "propensity",
            "beta": model.beta.tolist(),
            "basis": _basis_to_dict(model.basis),
            "clip": model.clip,
            "n_iter": model.n_iter,
            "grad_norm": model.grad_norm,
        }
    if isinstance(model, OutcomeModel):
        cfg = model.config
        payload = {
            "version": SERIALIZATION_VERSION,
            "model_type": "outcome",
            "config": {
                "kind": cfg.kind,
                "n_trees": cfg.n_trees,
                "max_depth": cfg.max_depth,
                "learning_rate": cfg.learning_rate,
                "ridge_penalty": cfg.ridge_penalty,
                "joint": cfg.joint,
                "min_arm_size": cfg.min_arm_size,
            },
        }
        if cfg.joint:
            payload["joint_model"] = model.joint_model.to_dict()
        else:
            payload["arm_models"] = {
                str(arm): m.to_dict() for arm, m in sorted(model.arm_models.items())
            }
        return payload
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_dict(payload: dict):
    """Rebuild a model serialized by model_to_dict."""
    version = payload.get("version")
    if version != SERIALIZATION_VERSION:
        raise ValueError(f"unsupported model version {version!r}")
    kind = payload.get("model_type")
    if kind == "propensity":
        return PropensityModel(
            beta=np.asarray(payload["beta"], dtype=float),
            basis=_basis_from_dict(payload["basis"]),
            clip=float(payload["clip"]),
            n_iter=int(payload.get("n_iter", 0)),
            grad_norm=float(payload.get("grad_norm", 0.0)),
        )
    if kind == "outcome":
        cfg = OutcomeConfig(**payload["config"])
        if cfg.joint:
            sub = payload["joint_model"]
            cls = GradientBoostedRegressor if cfg.kind == "boosted_trees" else RidgeModel
            return OutcomeModel(config=cfg, joint_model=cls.from_dict(sub))
        cls = GradientBoostedRegressor if cfg.kind == "boosted_trees" else RidgeModel
        return OutcomeModel(
            config=cfg,
            arm_models={int(a): cls.from_dict(m)
                        for a, m in payload["arm_models"].items()},
        )
    raise ValueError(f"unknown model_type {kind!r}")


def save_model(model, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, sort_keys=True)
        handle.write("\n")


def load_model(path: str | Path):
    with open(path, encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
