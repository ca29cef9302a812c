"""Deterministic regression trees and least-squares gradient boosting.

Split search is exact greedy: every midpoint between consecutive distinct
sorted feature values is a candidate, and ties are broken toward the lowest
feature index, then the lowest threshold.  No subsampling anywhere, so
refitting on identical data reproduces the tree structure bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# relative gain below which a node is kept as a leaf; guards against
# splitting on pure floating-point noise (e.g. constant targets)
_GAIN_EPS = 1e-12


@dataclass
class RegressionTree:
    """Array-encoded binary tree; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _StackedTrees([self]).leaf_values(np.asarray(x, dtype=float))[0]

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RegressionTree":
        return cls(
            feature=np.asarray(payload["feature"], dtype=np.int64),
            threshold=np.asarray(payload["threshold"], dtype=float),
            left=np.asarray(payload["left"], dtype=np.int64),
            right=np.asarray(payload["right"], dtype=np.int64),
            value=np.asarray(payload["value"], dtype=float),
        )


class PresortedColumns:
    """The columns of one covariate matrix in sorted order, shared by many trees.

    ``order`` is ``argsort(x, axis=0, kind="stable").T``, computed here unless
    given.  ``tied`` lists the features whose sorted values are not strictly
    increasing.  A node's rows keep that order, so only these features can hold
    a tie inside a node and need the split search's tie mask.  The rest holds
    the split search's scratch space, and ``leaf``, into which ``fit_tree``
    writes each training row's leaf id.
    """

    def __init__(self, x: np.ndarray, order: np.ndarray | None = None):
        n, d = x.shape
        self.order = order if order is not None \
            else np.argsort(x, axis=0, kind="stable").T
        xs = x[self.order, np.arange(d)[:, None]]
        self.tied = np.flatnonzero(~(xs[:, 1:] > xs[:, :-1]).all(axis=1))
        self.leaf = np.zeros(n, dtype=np.int64)
        self.go_left = np.zeros(n, dtype=bool)
        # an m-row node's m - 1 cut points leave count_left[:m - 1] rows on
        # the left and count_right[1 - m:] on the right
        self.count_left = np.arange(1, n, dtype=float)
        self.count_right = np.arange(n - 1, 0, -1, dtype=float)
        self.csum = np.empty(d * n)
        self.gain = np.empty(d * n)
        self.tmp = np.empty(d * n)


def _best_split(x: np.ndarray, ys: np.ndarray, order: np.ndarray,
                cols: PresortedColumns):
    """Best (feature, threshold) by squared-error reduction, or None.

    order holds, per feature, the node's row indices sorted by that feature,
    and ys is y[order].
    """
    d, m = order.shape
    if m < 2:
        return None
    csum = np.add.accumulate(ys, axis=1, out=cols.csum[:d * m].reshape(d, m))
    total = csum[:, -1]
    s_left = csum[:, :-1]
    parent = (total * total) / m
    gain = cols.gain[:d * (m - 1)].reshape(d, m - 1)
    tmp = cols.tmp[:d * (m - 1)].reshape(d, m - 1)
    np.multiply(s_left, s_left, out=gain)
    np.divide(gain, cols.count_left[:m - 1], out=gain)
    np.subtract(total[:, None], s_left, out=tmp)
    np.square(tmp, out=tmp)
    np.divide(tmp, cols.count_right[1 - m:], out=tmp)
    gain += tmp
    gain -= parent[:, None]
    if cols.tied.size:
        xt = x[order[cols.tied], cols.tied[:, None]]
        gt = gain[cols.tied]
        gt[xt[:, 1:] <= xt[:, :-1]] = -np.inf
        gain[cols.tied] = gt

    flat = int(gain.argmax())
    best = gain.item(flat)
    # y[order] keeps order's memory layout, and with it the summation order
    # np.dot uses here
    row = ys[0]
    mean_square = float(np.dot(row, row)) / m
    if not math.isfinite(best) or best <= _GAIN_EPS * max(1.0, mean_square):
        return None
    j, pos = divmod(flat, m - 1)
    a = x.item(order.item(j, pos), j)
    b = x.item(order.item(j, pos + 1), j)
    thr = 0.5 * (a + b)
    if thr >= b:
        thr = a
    return j, thr


def _node_value(ys: np.ndarray) -> float:
    """np.mean(ys[0]), the node's mean target, without np.mean's overhead."""
    return float(np.add.reduce(ys[0])) / ys.shape[1]


def fit_tree(x: np.ndarray, y: np.ndarray, max_depth: int,
             presorted: np.ndarray | PresortedColumns | None = None) -> RegressionTree:
    """Grow a depth-limited least-squares tree with deterministic splits.

    presorted may carry argsort(x, axis=0, kind="stable").T, or a
    PresortedColumns built on x, to avoid re-sorting when many trees are
    grown on the same covariates.  A PresortedColumns also keeps its scratch
    space across calls, and after the call its ``leaf`` holds each training
    row's leaf id, so ``tree.value[leaf]`` equals ``tree.predict(x)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cols = presorted if isinstance(presorted, PresortedColumns) \
        else PresortedColumns(x, presorted)

    ys = y[cols.order]
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [_node_value(ys)]
    stack = [(0, cols.order, ys, 0)]
    while stack:
        node_id, order, ys, depth = stack.pop()
        rows = order[0]
        found = None if depth >= max_depth else _best_split(x, ys, order, cols)
        if found is None:
            cols.leaf[rows] = node_id
            continue
        j, thr = found
        cols.go_left[rows] = x[rows, j] <= thr
        # children at max_depth stay leaves: row 0 is all they need
        part = order if depth + 1 < max_depth else order[:1]
        mask = cols.go_left[part].ravel()
        part = part.ravel()
        m = rows.shape[0]
        n_left = int(np.count_nonzero(mask[:m]))
        if n_left == 0 or n_left == m:
            cols.leaf[rows] = node_id
            continue
        order_left = part.compress(mask).reshape(-1, n_left)
        order_right = part.compress(~mask).reshape(-1, m - n_left)
        ys_left = y[order_left]
        ys_right = y[order_right]
        left_id = len(feature)
        feature[node_id] = j
        threshold[node_id] = thr
        left[node_id] = left_id
        right[node_id] = left_id + 1
        feature += (-1, -1)
        threshold += (0.0, 0.0)
        left += (-1, -1)
        right += (-1, -1)
        value += (_node_value(ys_left), _node_value(ys_right))
        stack.append((left_id + 1, order_right, ys_right, depth + 1))
        stack.append((left_id, order_left, ys_left, depth + 1))

    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
    )


# rows per block in GradientBoostedRegressor.predict: its (trees, rows)
# temporaries stay near 200 KiB each (100 trees), whatever the input size
_PREDICT_BLOCK = 256


class _StackedTrees:
    """Several trees' arrays end to end, with node ids offset to match.

    A leaf gets feature 0 and points to itself, so every tree can step down
    depth times, depth being the deepest tree's depth.
    """

    def __init__(self, trees: list[RegressionTree]):
        sizes = [tree.n_nodes for tree in trees]
        self.roots = np.cumsum(sizes) - sizes
        feature = np.concatenate([tree.feature for tree in trees])
        internal = feature >= 0
        ids = np.arange(feature.shape[0])
        offset = np.repeat(self.roots, sizes)
        self.left = np.where(
            internal, np.concatenate([t.left for t in trees]) + offset, ids)
        self.right = np.where(
            internal, np.concatenate([t.right for t in trees]) + offset, ids)
        self.feature = np.where(internal, feature, 0)
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.value = np.concatenate([tree.value for tree in trees])
        self.depth = 0
        level = self.roots[internal[self.roots]]
        while level.size:
            self.depth += 1
            level = np.concatenate([self.left[level], self.right[level]])
            level = level[internal[level]]

    def leaf_values(self, x: np.ndarray) -> np.ndarray:
        """(trees, rows) leaf values of x's rows, all trees stepped at once."""
        if x.ndim != 2 or x.shape[1] <= self.feature.max():
            raise ValueError(f"x needs {self.feature.max() + 1} or more columns, "
                             f"got shape {x.shape}")
        x = np.ascontiguousarray(x)
        row_start = np.arange(x.shape[0]) * x.shape[1]
        node = np.repeat(self.roots[:, None], x.shape[0], axis=1)
        for _ in range(self.depth):
            go_left = x.take(self.feature[node] + row_start) <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


@dataclass
class GradientBoostedRegressor:
    """Squared-error gradient boosting on deterministic regression trees.

    Fit state: ``base_`` (mean of the training target), ``trees_``, and
    ``train_rmse_`` with one entry per completed round.
    """

    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    base_: float = 0.0
    trees_: list[RegressionTree] = field(default_factory=list)
    train_rmse_: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("x must be (n, d) and y must be (n,)")
        if self.n_trees < 1 or self.max_depth < 1:
            raise ValueError("n_trees and max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y must be finite")
        n = x.shape[0]
        self.base_ = float(np.mean(y))
        self.trees_ = []
        current = np.full(n, self.base_)
        rmse = np.empty(self.n_trees)
        cols = PresortedColumns(x)
        for round_idx in range(self.n_trees):
            residual = y - current
            tree = fit_tree(x, residual, self.max_depth, presorted=cols)
            current = current + self.learning_rate * tree.value[cols.leaf]
            self.trees_.append(tree)
            rmse[round_idx] = math.sqrt(np.add.reduce((y - current) ** 2) / n)
        self.train_rmse_ = rmse
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """base_ plus learning_rate times each tree's leaf value, tree by tree.

        All trees step a block of rows down together, on their stacked
        arrays, in which each leaf points to itself; then the trees' leaf
        values are added in tree order, so the sums are those of a
        per-tree loop.
        """
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape[0], self.base_)
        if not self.trees_:
            return out
        stacked = _StackedTrees(self.trees_)
        for start in range(0, x.shape[0], _PREDICT_BLOCK):
            leaf_values = stacked.leaf_values(x[start:start + _PREDICT_BLOCK])
            leaf_values *= self.learning_rate
            rows = out[start:start + _PREDICT_BLOCK]
            for tree_values in leaf_values:
                rows += tree_values
        return out

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "learning_rate": self.learning_rate,
            "base": self.base_,
            "trees": [tree.to_dict() for tree in self.trees_],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GradientBoostedRegressor":
        model = cls(
            n_trees=int(payload["n_trees"]),
            max_depth=int(payload["max_depth"]),
            learning_rate=float(payload["learning_rate"]),
        )
        model.base_ = float(payload["base"])
        model.trees_ = [RegressionTree.from_dict(t) for t in payload["trees"]]
        return model
