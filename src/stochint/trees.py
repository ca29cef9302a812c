"""Deterministic regression trees and least-squares gradient boosting.

Split search is exact greedy: every midpoint between consecutive distinct
sorted feature values is a candidate, and ties are broken toward the lowest
feature index, then the lowest threshold.  No subsampling anywhere, so
refitting on identical data reproduces the tree structure bit for bit.
"""

from __future__ import annotations

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
        x = np.asarray(x, dtype=float)
        node = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            internal = feat >= 0
            if not internal.any():
                return self.value[node]
            rows = np.flatnonzero(internal)
            go_left = x[rows, feat[rows]] <= self.threshold[node[rows]]
            node[rows] = np.where(go_left, self.left[node[rows]], self.right[node[rows]])

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


def _best_split(x: np.ndarray, y: np.ndarray, order: np.ndarray,
                cols: PresortedColumns):
    """Best (feature, threshold) by squared-error reduction, or None.

    order holds, per feature, the node's row indices sorted by that feature.
    """
    d, m = order.shape
    if m < 2:
        return None
    # y[order] keeps order's memory layout, and with it the summation order
    # np.dot uses for the row-0 mean square below
    ys = y[order]
    csum = np.cumsum(ys, axis=1, out=cols.csum[:d * m].reshape(d, m))
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

    flat = int(np.argmax(gain))
    j, pos = divmod(flat, m - 1)
    best = gain[j, pos]
    mean_square = float(np.dot(ys[0], ys[0])) / m
    if not np.isfinite(best) or best <= _GAIN_EPS * max(1.0, mean_square):
        return None
    a, b = x[order[j, pos], j], x[order[j, pos + 1], j]
    thr = 0.5 * (a + b)
    if thr >= b:
        thr = a
    return int(j), float(thr), best


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

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node(rows_sorted: np.ndarray) -> int:
        node_id = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(np.mean(y[rows_sorted[0]])))
        return node_id

    root = new_node(cols.order)
    stack = [(root, cols.order, 0)]
    while stack:
        node_id, order, depth = stack.pop()
        rows = order[0]
        found = None if depth >= max_depth else _best_split(x, y, order, cols)
        if found is None:
            cols.leaf[rows] = node_id
            continue
        j, thr, _ = found
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
        order_left = np.compress(mask, part).reshape(-1, n_left)
        order_right = np.compress(~mask, part).reshape(-1, m - n_left)
        feature[node_id] = j
        threshold[node_id] = thr
        left_id = new_node(order_left)
        right_id = new_node(order_right)
        left[node_id] = left_id
        right[node_id] = right_id
        stack.append((right_id, order_right, depth + 1))
        stack.append((left_id, order_left, depth + 1))

    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
    )


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
        self.base_ = float(np.mean(y))
        self.trees_ = []
        current = np.full(x.shape[0], self.base_)
        rmse = np.empty(self.n_trees)
        cols = PresortedColumns(x)
        for round_idx in range(self.n_trees):
            residual = y - current
            tree = fit_tree(x, residual, self.max_depth, presorted=cols)
            current = current + self.learning_rate * tree.value[cols.leaf]
            self.trees_.append(tree)
            rmse[round_idx] = float(np.sqrt(np.mean((y - current) ** 2)))
        self.train_rmse_ = rmse
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape[0], self.base_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(x)
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
