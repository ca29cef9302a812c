"""Dataset containers, synthetic generators, CSV ingestion, and fold utilities.

All randomness flows through ``numpy.random.default_rng(seed)`` so that every
artifact produced here is a pure function of its arguments.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .parallel import pool, usable_cpus


class DatasetError(ValueError):
    """Raised for malformed input files or invalid dataset construction."""


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-unit potential-outcome means and, optionally, the true propensity."""

    mu0: np.ndarray
    mu1: np.ndarray
    true_propensity: np.ndarray | None = None

    def __post_init__(self):
        mu0 = _frozen(self.mu0)
        mu1 = _frozen(self.mu1)
        if mu0.ndim != 1 or mu1.ndim != 1 or mu0.shape != mu1.shape:
            raise DatasetError("mu0 and mu1 must be 1-d arrays of equal length")
        if not (np.isfinite(mu0).all() and np.isfinite(mu1).all()):
            raise DatasetError("ground-truth outcome means must be finite")
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu1", mu1)
        if self.true_propensity is not None:
            p = _frozen(self.true_propensity)
            if p.shape != mu0.shape:
                raise DatasetError("true_propensity length mismatch")
            if not np.isfinite(p).all() or (p <= 0).any() or (p >= 1).any():
                raise DatasetError("true_propensity must lie strictly in (0, 1)")
            object.__setattr__(self, "true_propensity", p)

    @property
    def ate(self) -> float:
        """Average treatment effect, reported as mean(mu1 - mu0)."""
        return float(np.mean(self.mu1 - self.mu0))

    def subset(self, indices: np.ndarray) -> "GroundTruth":
        p = self.true_propensity
        return GroundTruth(
            mu0=self.mu0[indices],
            mu1=self.mu1[indices],
            true_propensity=None if p is None else p[indices],
        )


@dataclass(frozen=True, eq=False)
class ObservationalDataset:
    """An observational sample (covariates, binary treatment, outcome).

    Arrays are stored read-only.  ``truth`` is present only for synthetic or
    semi-synthetic data and is never consulted by the fitting code paths.
    """

    covariates: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray
    truth: GroundTruth | None = None

    def __post_init__(self):
        x = _frozen(self.covariates)
        t = _frozen(self.treatments, dtype=np.int64)
        y = _frozen(self.outcomes)
        if x.ndim != 2:
            raise DatasetError("covariates must be a 2-d array")
        n = x.shape[0]
        if n < 1 or x.shape[1] < 1:
            raise DatasetError("dataset must have at least one unit and one covariate")
        if t.shape != (n,) or y.shape != (n,):
            raise DatasetError("treatments and outcomes must have one entry per unit")
        if not np.isin(t, (0, 1)).all():
            bad = int(np.flatnonzero(~np.isin(t, (0, 1)))[0])
            raise DatasetError(f"treatment must be 0 or 1; offending unit index {bad}")
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise DatasetError("covariates and outcomes must be finite")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "treatments", t)
        object.__setattr__(self, "outcomes", y)
        if self.truth is not None and self.truth.mu0.shape != (n,):
            raise DatasetError("ground truth length does not match dataset")

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_features(self) -> int:
        return self.covariates.shape[1]

    def subset(self, indices) -> "ObservationalDataset":
        """Return the dataset restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        return ObservationalDataset(
            covariates=self.covariates[idx],
            treatments=self.treatments[idx],
            outcomes=self.outcomes[idx],
            truth=None if self.truth is None else self.truth.subset(idx),
        )


# ---------------------------------------------------------------------------
# CSV ingestion and emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSchema:
    """Binds dataset roles to column names of a headered CSV file."""

    treatment: str
    outcome: str
    covariates: tuple[str, ...]
    mu0: str | None = None
    mu1: str | None = None
    true_propensity: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        names = self.all_columns()
        if len(set(names)) != len(names):
            repeated = next(name for i, name in enumerate(names) if name in names[:i])
            raise DatasetError(f"schema binds column {repeated!r} to two roles")
        if (self.mu0 is None) != (self.mu1 is None):
            raise DatasetError("mu0 and mu1 columns must be given together")

    def all_columns(self) -> list[str]:
        names = [self.treatment, self.outcome, *self.covariates]
        for extra in (self.mu0, self.mu1, self.true_propensity):
            if extra is not None:
                names.append(extra)
        return names


def default_schema(d: int, with_truth: bool = False) -> ColumnSchema:
    """Schema used by the simulator: covariates x0..x{d-1}, treatment t, outcome y."""
    return ColumnSchema(
        treatment="t",
        outcome="y",
        covariates=tuple(f"x{j}" for j in range(d)),
        mu0="mu0" if with_truth else None,
        mu1="mu1" if with_truth else None,
        true_propensity="p" if with_truth else None,
    )


def _parse_cell(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DatasetError(
            f"row {row}, column '{column}': cannot parse {cell!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise DatasetError(f"row {row}, column '{column}': non-finite value {cell!r}")
    return value


def load_csv(path: str | Path, schema: ColumnSchema) -> ObservationalDataset:
    """Load a comma-separated, headered UTF-8 file (BOM allowed) into a dataset.

    Args:
        path: file to read.
        schema: column bindings; all bound columns must exist exactly once.
            A schema that names no covariates takes every column bound to
            no other role.

    Returns:
        The parsed dataset; ground truth is attached when the schema binds
        mu0/mu1 columns.

    Raises:
        DatasetError: missing file, missing or duplicated columns, non-numeric
            or non-finite cells (reported with row and column), or a treatment
            value other than 0/1.
    """
    from array import array  # here, so that commands that read no CSV do not load it
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a header row") from None
        if not schema.covariates:
            bound = schema.all_columns()
            # a repeated name is inferred once, then refused below by name
            schema = replace(schema, covariates=list(dict.fromkeys(
                c for c in header if c not in bound)))
            if not schema.covariates:
                raise DatasetError(f"{path}: no column is left for the covariates")
        names = schema.all_columns()
        where = {col: i for i, col in enumerate(header)}  # a name's last position
        repeated = {col for i, col in enumerate(header) if where[col] != i}
        positions = []
        for name in names:
            if name not in where:
                raise DatasetError(f"{path}: missing column '{name}'")
            if name in repeated:
                raise DatasetError(f"{path}: duplicated column '{name}'")
            positions.append(where[name])

        # one row of bound values per data row, in all_columns() order: the
        # treatment cell comes first and is checked before the others parse
        others = list(zip(positions, names))[1:]
        values = array("d")
        for row_number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DatasetError(
                    f"row {row_number}: expected {len(header)} fields, got {len(row)}"
                )
            t_val = _parse_cell(row[positions[0]], row_number, schema.treatment)
            if t_val not in (0.0, 1.0):
                raise DatasetError(
                    f"row {row_number}, column '{schema.treatment}': "
                    f"treatment must be 0 or 1, got {t_val!r}"
                )
            values.append(t_val)
            values.extend([_parse_cell(row[i], row_number, name) for i, name in others])
    if not values:
        raise DatasetError(f"{path}: no data rows")
    column = dict(zip(names, np.frombuffer(values).reshape(-1, len(names)).T))
    truth = None
    if schema.mu0 is not None:
        truth = GroundTruth(
            mu0=column[schema.mu0],
            mu1=column[schema.mu1],
            true_propensity=column.get(schema.true_propensity),
        )
    return ObservationalDataset(
        covariates=np.column_stack([column[c] for c in schema.covariates]),
        treatments=column[schema.treatment].astype(np.int64),
        outcomes=column[schema.outcome],
        truth=truth,
    )


def write_csv(data: ObservationalDataset, path: str | Path) -> None:
    """Write a dataset in default_schema's layout, with the mu0, mu1 and p
    columns exactly when it carries ground truth; floats use shortest
    round-trip formatting."""
    truth = data.truth
    columns = [data.treatments, data.outcomes, *data.covariates.T]
    if truth is not None:
        if truth.true_propensity is None:
            raise DatasetError("dataset truth has no propensity to write")
        columns += [truth.mu0, truth.mu1, truth.true_propensity]
    schema = default_schema(data.n_features, with_truth=truth is not None)
    write_columns(path, schema.all_columns(), columns)


def write_truth_csv(data: ObservationalDataset, path: str | Path) -> None:
    """Write the ground-truth side-file (unit_index, mu0, mu1, true_propensity)."""
    if data.truth is None:
        raise DatasetError("dataset carries no ground truth")
    header = ["unit_index", "mu0", "mu1"]
    columns = [np.arange(data.n_units), data.truth.mu0, data.truth.mu1]
    if data.truth.true_propensity is not None:
        header.append("true_propensity")
        columns.append(data.truth.true_propensity)
    write_columns(path, header, columns)


# rows per block in write_columns: each pool worker formats one block per
# round, so the calling process holds one round of text at a time
_WRITE_BLOCK = 1024


def write_columns(path: str | Path, header: list[str], columns) -> None:
    """Write a header line and the rows of equal-length 1-d arrays as CSV,
    in the bytes csv.writer gives their .tolist() rows.

    Cells are ints, floats, bools or strings that csv.writer never quotes:
    the only strings written are the method names of experiments.METHODS
    and the splits "train" and "test".  A block of rows is formatted column
    by column, one str() per cell, as csv.writer formats a number, which it
    never quotes, since it holds no comma, quote or line break.  Each round,
    every parallel.pool worker formats one block, written in block order.
    """
    starts = range(0, len(columns[0]), _WRITE_BLOCK)

    def block_text(start: int) -> str:
        cells = [map(str, column[start:start + _WRITE_BLOCK].tolist())
                 for column in columns]
        return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"

    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        with pool(block_text, len(starts)) as format_blocks:
            step = usable_cpus()
            for first in range(0, len(starts), step):
                handle.writelines(format_blocks(starts[first:first + step]))


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DgpConfig:
    """Knobs shared by the synthetic generators.

    noise_scale: outcome noise level; 0 makes observed outcomes exactly equal
        to the chosen arm's mean.
    treated_fraction_target: mean of the clipped assignment probabilities,
        so it lies in (propensity_clip, 1 - propensity_clip).
    propensity_clip: floor/ceiling applied to assignment probabilities.
    nonlinearity: scales the interaction and smooth nonlinear response terms;
        0 yields response surfaces that are exactly linear in the covariates.
    uplift_fraction: fraction of units with mu1 > mu0 (revenue generator only).
    """

    noise_scale: float = 1.0
    treated_fraction_target: float = 0.19
    propensity_clip: float = 0.01
    nonlinearity: float = 1.0
    uplift_fraction: float = 0.85

    def __post_init__(self):
        for name in ("noise_scale", "nonlinearity"):
            if not 0 <= getattr(self, name) < math.inf:
                raise DatasetError(f"{name} must be finite and >= 0")
        clip = self.propensity_clip
        if not 0.0 < clip < 0.5:
            raise DatasetError("propensity_clip must lie in (0, 0.5)")
        if not clip < self.treated_fraction_target < 1.0 - clip:
            raise DatasetError("treated_fraction_target must lie in (propensity_clip, "
                               f"1 - propensity_clip) = ({clip:g}, {1 - clip:g})")
        if not 0.0 < self.uplift_fraction < 1.0:
            raise DatasetError("uplift_fraction must lie in (0, 1)")


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bisect(below, lo: float, hi: float) -> float:
    """Point of [lo, hi] where below(x) turns false, after 80 halvings."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _observe(rng: np.random.Generator, x: np.ndarray, mu0: np.ndarray,
             mu1: np.ndarray, z: np.ndarray, cfg: DgpConfig,
             noisy) -> ObservationalDataset:
    """Assign and observe: bisect the intercept of p = clip(sigmoid(alpha + z))
    so that mean p hits the treated-fraction target, draw the treatments, then
    the outcomes noisy(mu) from the chosen arms' means mu."""
    clip = cfg.propensity_clip
    alpha = _bisect(
        lambda a: np.clip(sigmoid(a + z), clip, 1.0 - clip).mean()
        < cfg.treated_fraction_target, -30.0, 30.0)
    p = np.clip(sigmoid(alpha + z), clip, 1.0 - clip)
    t = (rng.random(p.shape[0]) < p).astype(np.int64)
    if t.min() == t.max():
        raise DatasetError(
            "degenerate draw: all units landed in one arm; "
            "increase n or move treated_fraction_target away from the boundary"
        )
    return ObservationalDataset(
        covariates=x,
        treatments=t,
        outcomes=noisy(np.where(t == 1, mu1, mu0)),
        truth=GroundTruth(mu0=mu0, mu1=mu1, true_propensity=p),
    )


def generate_ihdp_like(n: int, d: int, seed: int,
                       config: DgpConfig | None = None) -> ObservationalDataset:
    """Semi-synthetic birth-cohort style benchmark data.

    Covariates are standard normal.  Response surfaces are sparse: a linear
    part plus (scaled by ``config.nonlinearity``) one interaction and one
    smooth nonlinear term, with a heterogeneous effect.  Assignment is
    logistic in the same active covariates, so confounding is present, and
    the intercept is calibrated to the configured treated fraction.

    Args:
        n: number of units (>= 20).
        d: number of covariates (>= 2).
        seed: generator seed; the coefficient draw is part of the seed stream.
        config: see DgpConfig; defaults match the birth-cohort benchmark
            (treated fraction about 0.19).

    Returns:
        Dataset with full ground truth attached.
    """
    if n < 20:
        raise DatasetError("generate_ihdp_like requires n >= 20")
    if d < 2:
        raise DatasetError("generate_ihdp_like requires d >= 2")
    cfg = config or DgpConfig()
    rng = np.random.default_rng(seed)

    x = rng.standard_normal((n, d))
    a = min(d, 6)
    active = np.sort(rng.permutation(d)[:a])
    xa = x[:, active]

    w_base = rng.normal(0.0, 1.0, a) / math.sqrt(a)
    w_tau = rng.normal(0.0, 1.0, a) / math.sqrt(a)
    w_assign = rng.normal(0.0, 1.0, a) / math.sqrt(a)

    # curvature sits on the same coordinates that drive assignment, so a
    # per-arm linear fit is biased while axis-aligned splits are not
    nl = cfg.nonlinearity
    c0 = xa[:, 0]
    c1 = xa[:, 1 % a]
    c2 = xa[:, 2 % a]
    mu0 = (
        2.0 * (xa @ w_base)
        + nl * (1.5 * c0 * c0 + 1.5 * c0 * c1 + 2.0 * np.sin(c2))
    )
    tau = 1.0 + (xa @ w_tau) + nl * (0.8 * c1 * c1 + 1.0 * np.cos(c1))
    mu1 = mu0 + tau

    z = 1.2 * (0.9 * c0 + 0.7 * c1 + 0.5 * (xa @ w_assign))
    return _observe(rng, x, mu0, mu1, z, cfg,
                    lambda mu: mu + cfg.noise_scale * rng.standard_normal(n))


def _norm_quantile(q: float) -> float:
    """Standard normal quantile via bisection on the erf-based cdf."""
    return _bisect(lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) < q,
                   -8.0, 8.0)


OP_DEFAULTS = DgpConfig(
    noise_scale=0.4,
    treated_fraction_target=0.45,
    propensity_clip=0.01,
    nonlinearity=1.0,
    uplift_fraction=0.85,
)


def generate_op_like(n: int, seed: int,
                     config: DgpConfig | None = None) -> ObservationalDataset:
    """Online-promotion style revenue data with 11 covariates.

    Treatment is a promotion flag, the outcome is nonnegative revenue, and
    mu1 exceeds mu0 for ``config.uplift_fraction`` of units (in expectation).
    Noise is multiplicative gamma with unit mean, so outcomes stay
    nonnegative and ``noise_scale`` 0 reproduces the arm means exactly.

    Args:
        n: number of units (>= 20).
        seed: generator seed.
        config: see DgpConfig; defaults to OP_DEFAULTS (treated fraction 0.45,
            multiplicative noise 0.4).

    Returns:
        Dataset with full ground truth attached.
    """
    if n < 20:
        raise DatasetError("generate_op_like requires n >= 20")
    cfg = config or OP_DEFAULTS
    rng = np.random.default_rng(seed)
    d = 11

    x = np.empty((n, d))
    x[:, :8] = rng.standard_normal((n, 8))
    x[:, 8] = (rng.random(n) < 0.5).astype(float)
    x[:, 9] = (rng.random(n) < 0.3).astype(float)
    x[:, 10] = (rng.random(n) < 0.6).astype(float)

    nl = cfg.nonlinearity
    base_index = (
        1.0
        + 0.8 * x[:, 2]
        + 0.5 * x[:, 3]
        + 0.4 * x[:, 8]
        + nl * 0.3 * x[:, 0] * x[:, 4]
    )
    mu0 = 10.0 * np.log1p(np.exp(base_index))

    spread = math.sqrt(0.35 ** 2 + 0.25 ** 2)
    shift = spread * _norm_quantile(cfg.uplift_fraction)
    effect = shift + 0.35 * x[:, 5] + 0.25 * x[:, 6]
    mu1 = mu0 * np.exp(effect)

    z = 0.7 * x[:, 0] + 0.5 * x[:, 1] - 0.4 * x[:, 9]
    if cfg.noise_scale == 0:
        return _observe(rng, x, mu0, mu1, z, cfg, lambda mu: mu)
    shape = 1.0 / (cfg.noise_scale ** 2)
    return _observe(rng, x, mu0, mu1, z, cfg,
                    lambda mu: mu * rng.gamma(shape, 1.0 / shape, n))


# ---------------------------------------------------------------------------
# fold assignment and splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """A disjoint, exhaustive assignment of unit indices to k folds."""

    fold_of_unit: np.ndarray
    k: int

    def __post_init__(self):
        f = _frozen(self.fold_of_unit, dtype=np.int64)
        if f.ndim != 1:
            raise DatasetError("fold_of_unit must be 1-d")
        if f.min() < 0 or f.max() >= self.k:
            raise DatasetError("fold labels out of range")
        object.__setattr__(self, "fold_of_unit", f)

    def indices(self, fold: int) -> np.ndarray:
        """Unit indices of one fold, ascending."""
        return np.flatnonzero(self.fold_of_unit == fold)

    def complement(self, fold: int) -> np.ndarray:
        """Unit indices outside one fold, ascending."""
        return np.flatnonzero(self.fold_of_unit != fold)


def split_folds(n: int, k: int, seed: int) -> FoldAssignment:
    """Randomly assign n units to k folds with sizes differing by at most one.

    Deterministic in (n, k, seed).
    """
    if not 2 <= k <= n:
        raise DatasetError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold_of_unit = np.empty(n, dtype=np.int64)
    fold_of_unit[perm] = np.arange(n) % k
    return FoldAssignment(fold_of_unit=fold_of_unit, k=k)


def train_test_split(data: ObservationalDataset, test_fraction: float,
                     seed: int) -> tuple[ObservationalDataset, ObservationalDataset]:
    """Random disjoint train/test split; both sides keep ascending unit order."""
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError("test_fraction must lie in (0, 1)")
    n = data.n_units
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise DatasetError(
            f"test_fraction {test_fraction} leaves an empty split at n={n}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return data.subset(train_idx), data.subset(test_idx)
