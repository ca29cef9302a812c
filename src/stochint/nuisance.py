"""Nuisance models: basis-expanded logistic propensity and outcome regressions.

The propensity model is a logistic regression on a nonlinear basis expansion,
fit by damped Newton iterations on the L2-regularized mean negative
log-likelihood.  Outcome models are either gradient-boosted trees (default)
or ridge regression, fit per arm.  No model is saved: a run keeps only its
held-out predictions, which ``effects.write_records_csv`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ObservationalDataset, sigmoid
from .trees import GradientBoostedRegressor, check_boosting

BASIS_KINDS = ("raw", "polynomial2")
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
    """

    kind: str
    n_inputs: int

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial2" and self.output_dim > MAX_POLYNOMIAL2_COLUMNS:
            raise ValueError(
                f"a polynomial2 basis on {self.n_inputs} covariates has "
                f"{self.output_dim} columns, more than {MAX_POLYNOMIAL2_COLUMNS}; "
                "use the raw basis")

    @property
    def output_dim(self) -> int:
        if self.kind == "raw":
            return 1 + self.n_inputs
        d = self.n_inputs
        return 1 + d + d * (d + 1) // 2

    def expand(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map (n, d) covariates to the (n, output_dim) design matrix, or fill
        out, (output_dim, n), with its basis rows and return out.T; products
        are exact, so the bits are those of stacking the pieces."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_inputs:
            raise ValueError(f"expected (n, {self.n_inputs}) input, got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("basis input must be finite")
        d = self.n_inputs
        rows = np.empty((len(x), self.output_dim)).T if out is None else out
        rows[0] = 1.0
        rows[1:d + 1] = x.T
        if self.kind == "polynomial2":
            col = d + 1
            for i in range(1, d + 1):
                np.multiply(rows[i:d + 1], rows[i], out=rows[col:col + d + 1 - i])
                col += d + 1 - i
        return rows.T


# ---------------------------------------------------------------------------
# propensity model
# ---------------------------------------------------------------------------


def check_clip(clip: float) -> None:
    """Refuse a propensity clip outside (0, 0.5)."""
    if not 0.0 < clip < 0.5:
        raise ValueError("clip must lie in (0, 0.5)")


def check_l2_penalty(l2_penalty: float) -> None:
    """Refuse a propensity L2 penalty that is not finite and > 0."""
    if not 0 < l2_penalty < np.inf:
        raise ValueError("l2_penalty must be finite and > 0")


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Fitted basis-logistic treatment model with prediction clipping."""

    beta: np.ndarray
    basis: BasisExpansion
    clip: float = 0.01
    n_iter: int = 0
    grad_norm: float = 0.0

    def __post_init__(self):
        check_clip(self.clip)
        b = np.ascontiguousarray(np.asarray(self.beta, dtype=float))
        if b.shape != (self.basis.output_dim,):
            raise ValueError("beta length must equal basis output_dim")
        b.flags.writeable = False
        object.__setattr__(self, "beta", b)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Clipped treatment probabilities for covariate rows x."""
        a = BasisExpansion("raw", self.basis.n_inputs).expand(x)
        p = sigmoid(_linear_predictor(self.basis, a, self.beta))
        return np.clip(p, self.clip, 1.0 - self.clip)


def _linear_predictor(basis: BasisExpansion, a: np.ndarray,
                      beta: np.ndarray) -> np.ndarray:
    """z = g @ beta from a = [1, x], the raw basis: a row's polynomial2 basis is
    a^T a's upper triangle read row by row, so z = a U a^T with U holding beta."""
    if basis.kind == "raw":
        return a @ beta
    u = np.zeros((a.shape[1], a.shape[1]))
    u[np.triu_indices(a.shape[1])] = beta
    return np.einsum("ij,ij->i", a @ u, a)


def _penalized_nll(basis: BasisExpansion, a: np.ndarray, t: np.ndarray,
                   beta: np.ndarray, lam: float) -> tuple[float, np.ndarray]:
    z = _linear_predictor(basis, a, beta)
    # mean log(1 + exp(z)) - t z, computed without overflow, and z itself
    nll = np.mean(np.logaddexp(0.0, z) - t * z)
    return float(nll + 0.5 * lam * np.dot(beta, beta)), z


def _gradient(basis: BasisExpansion, a: np.ndarray, r: np.ndarray,
              beta: np.ndarray, lam: float) -> np.ndarray:
    """The regularized mean NLL's gradient g^T r / n + lam beta, r = p - t."""
    if basis.kind == "raw":
        sums = a.T @ r
    else:
        sums = ((a.T * r) @ a)[np.triu_indices(a.shape[1])]
    return sums / len(r) + lam * beta


# rows per Newton Hessian block: one reused (s, 1024) buffer of basis rows
_HESSIAN_BLOCK = 1024
# Newton stops at a gradient norm <= _NEWTON_TOL, and fails above it after the cap
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 100


def _hessian(basis: BasisExpansion, x: np.ndarray, root_w: np.ndarray,
             buffer: np.ndarray) -> np.ndarray:
    """g.T @ (g * root_w[:, None]**2), summed over row blocks as h @ h.T, h the
    basis rows times root_w in buffer: SYRK, half a GEMM, exactly symmetric."""
    hess = np.zeros((len(buffer), len(buffer)))
    for start in range(0, len(x), _HESSIAN_BLOCK):
        part = root_w[start:start + _HESSIAN_BLOCK]
        h = basis.expand(x[start:start + len(part)], out=buffer[:, :len(part)]).T
        h *= part
        hess += h @ h.T
    return hess


def fit_propensity(data: ObservationalDataset, basis: BasisExpansion,
                   l2_penalty: float = 1e-4, clip: float = 0.01) -> PropensityModel:
    """Fit the basis-logistic propensity model by damped Newton iterations.

    Args:
        data: observational sample; both arms must be present.
        basis: feature map applied to the covariates.
        l2_penalty: weight of half the squared norm of beta, > 0.
        clip: prediction floor/ceiling, in (0, 0.5).

    Returns:
        PropensityModel with convergence diagnostics attached.

    Raises:
        ValueError: l2_penalty is not > 0, or clip is outside (0, 0.5).
        FitError: single-arm data, or gradient norm above _NEWTON_TOL after
            _NEWTON_MAX_ITER iterations.
    """
    check_l2_penalty(l2_penalty)
    check_clip(clip)
    t = data.treatments.astype(float)
    if t.min() == t.max():
        raise FitError("propensity fit needs both treated and control units")
    x = data.covariates
    a = BasisExpansion("raw", basis.n_inputs).expand(x)
    n, s = len(t), basis.output_dim
    beta = np.zeros(s)
    buffer = np.empty((s, min(_HESSIAN_BLOCK, n)))
    # the accepted iterate's z = g @ beta also gives its gradient and Hessian
    obj, z = _penalized_nll(basis, a, t, beta, l2_penalty)
    n_iter = 0
    while True:
        p = sigmoid(z)
        grad = _gradient(basis, a, p - t, beta, l2_penalty)
        gn = float(np.linalg.norm(grad))
        if gn <= _NEWTON_TOL or n_iter == _NEWTON_MAX_ITER:
            break
        n_iter += 1
        hess = _hessian(basis, x, np.sqrt(p * (1.0 - p)), buffer)
        hess /= n
        hess.flat[::s + 1] += l2_penalty
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # freed before the next step sums its Hessian, which then has no
        # other s x s matrix beside it but one block's product
        del hess
        alpha = 1.0
        while alpha >= 2.0 ** -40:
            candidate = beta - alpha * step
            cand_obj, cand_z = _penalized_nll(basis, a, t, candidate, l2_penalty)
            if cand_obj <= obj:
                beta, z, obj = candidate, cand_z, cand_obj
                break
            alpha *= 0.5
        else:
            # no decrease found along the Newton direction; stop and report
            break
    if gn > _NEWTON_TOL:
        raise FitError(
            f"propensity solver did not converge: gradient norm {gn:.3e} "
            f"after {n_iter} iterations (tol {_NEWTON_TOL:.1e})"
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
    min_arm_size: smallest arm allowed for per-arm fitting.
    """

    kind: str = "boosted_trees"
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    ridge_penalty: float = 1e-6
    min_arm_size: int = 10

    def __post_init__(self):
        if self.kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        if not 0 < self.ridge_penalty < np.inf:
            raise ValueError("ridge_penalty must be finite and > 0")
        if self.min_arm_size < 1:
            raise ValueError("min_arm_size must be >= 1")
        check_boosting(self.n_trees, self.max_depth, self.learning_rate)


@dataclass(frozen=True, eq=False)
class RidgeModel:
    """Linear model with intercept; only slope coefficients are penalized."""

    coef: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.coef[0] + x @ self.coef[1:]


def _fit_ridge(x: np.ndarray, y: np.ndarray, penalty: float) -> RidgeModel:
    a = BasisExpansion("raw", x.shape[1]).expand(x)
    d = np.eye(a.shape[1])
    d[0, 0] = 0.0
    lhs = a.T @ a / len(a) + penalty * d
    rhs = a.T @ y / len(a)
    try:
        coef = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        coef = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return RidgeModel(coef=coef)


def check_outcome_arms(sizes: np.ndarray, config: OutcomeConfig) -> None:
    """Raise fit_outcome's FitError for training arm sizes (control, treated)
    with an arm under min_arm_size."""
    for arm, size in enumerate(sizes):
        if size < config.min_arm_size:
            raise FitError(
                f"arm {arm} has {size} units, fewer than min_arm_size="
                f"{config.min_arm_size}; per-arm outcome fit refused"
            )


def fit_outcome(data: ObservationalDataset, config: OutcomeConfig,
                arm: int) -> RidgeModel | GradientBoostedRegressor:
    """Fit the outcome regression mu_arm(x) on the units of the given arm.

    Raises:
        ValueError: arm is not 0 or 1.
        FitError: as check_outcome_arms.
    """
    if arm not in (0, 1):
        raise ValueError("arm must be 0 or 1")
    t = data.treatments
    check_outcome_arms(np.bincount(t, minlength=2), config)
    x, y = data.covariates[t == arm], data.outcomes[t == arm]
    if config.kind == "ridge_linear":
        return _fit_ridge(x, y, config.ridge_penalty)
    return GradientBoostedRegressor(n_trees=config.n_trees, max_depth=config.max_depth,
                                    learning_rate=config.learning_rate).fit(x, y)
