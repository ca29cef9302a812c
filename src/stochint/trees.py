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


def check_boosting(n_trees: int, max_depth: int, learning_rate: float) -> None:
    """Refuse boosting settings that no fit can use."""
    if n_trees < 1 or max_depth < 1:
        raise ValueError("n_trees and max_depth must be >= 1")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError("learning_rate must lie in (0, 1]")


@dataclass
class RegressionTree:
    """Array-encoded binary tree; feature == -1 marks a leaf.  Children are
    made in pairs, so no array stores the right child: it is left + 1."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _StackedTrees([self]).leaf_values(np.asarray(x, dtype=float))[0]

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


# cells (features x node rows) per block of the split search, at least one
# feature: its scratch arrays and gathered targets stay near 128 KiB each
_SPLIT_BLOCK = 16384


class PresortedColumns:
    """The columns of one covariate matrix in sorted order, shared by many trees.

    ``order`` is ``argsort(x.T, axis=1, kind="stable")``, C-contiguous so that
    the root's ``ravel`` is a view.  ``tied`` lists the features whose sorted
    values are not strictly increasing.  A node's rows keep that order, so only
    these features can hold a tie inside a node and need the split search's tie
    mask.  The rest holds the split search's scratch space, one block of
    features, and ``leaf``, into which ``fit_tree`` writes each training row's
    leaf id.
    """

    def __init__(self, x: np.ndarray):
        n, d = x.shape
        self.order = np.argsort(x.T, axis=1, kind="stable")
        xs = x[self.order, np.arange(d)[:, None]]
        self.tied = np.flatnonzero(~(xs[:, 1:] > xs[:, :-1]).all(axis=1))
        # tied[tied_below[a]:tied_below[b]] are the tied features in [a, b)
        self.tied_below = np.searchsorted(self.tied, np.arange(d + 1)).tolist()
        self.leaf = np.zeros(n, dtype=np.int64)
        self.go_left = np.zeros(n, dtype=bool)
        # an m-row node's m - 1 cut points leave count_left[:m - 1] rows on
        # the left and count_right[1 - m:] on the right
        self.count_left = np.arange(1, n, dtype=float)
        self.count_right = np.arange(n - 1, 0, -1, dtype=float)
        # a block holds all d features of a small node, one of an n-row node
        size = min(d * n, max(n, _SPLIT_BLOCK))
        self.csum = np.empty(size)
        self.gain = np.empty(size)
        self.tmp = np.empty(size)


def _best_split(x: np.ndarray, y: np.ndarray, order: np.ndarray,
                cols: PresortedColumns):
    """The node's mean target, and its best (feature, threshold) by
    squared-error reduction, or None.

    order holds, per feature, the node's row indices sorted by that feature.
    Features are searched in blocks of at most _SPLIT_BLOCK cells, each on
    its own targets y[order[block]].  A later block's best cut replaces the
    earlier one only if its gain is strictly greater, so the best cut is the
    first maximum in feature-major order, as one argmax over all features.
    """
    d, m = order.shape
    step = _SPLIT_BLOCK // m or 1
    best = -math.inf
    for start in range(0, d, step):
        ys = y[order[start:start + step]]
        if start == 0:
            # the node's targets in feature 0's order, a contiguous row
            row = ys[0]
            value = float(np.add.reduce(row)) / m
            if m < 2:
                return value, None
        k = ys.shape[0]
        csum = np.add.accumulate(ys, axis=1, out=cols.csum[:k * m].reshape(k, m))
        total = csum[:, -1:]
        s_left = csum[:, :-1]
        parent = (total * total) / m
        gain = cols.gain[:k * (m - 1)].reshape(k, m - 1)
        tmp = cols.tmp[:k * (m - 1)].reshape(k, m - 1)
        np.multiply(s_left, s_left, out=gain)
        np.divide(gain, cols.count_left[:m - 1], out=gain)
        np.subtract(total, s_left, out=tmp)
        np.square(tmp, out=tmp)
        np.divide(tmp, cols.count_right[1 - m:], out=tmp)
        gain += tmp
        gain -= parent
        lo, hi = cols.tied_below[start], cols.tied_below[start + k]
        if hi > lo:
            t = cols.tied[lo:hi]
            xt = x[order[t], t[:, None]]
            t_block = t - start if start else t
            gt = gain[t_block]
            gt[xt[:, 1:] <= xt[:, :-1]] = -np.inf
            gain[t_block] = gt

        flat = int(gain.argmax())
        gain_max = gain.item(flat)
        if gain_max > best:
            best, (j, pos) = gain_max, divmod(flat, m - 1)
            j += start
        elif gain_max != gain_max:
            # NaN: one argmax over all features would pick it, and not split
            return value, None
    # mean_square feeds only this threshold test
    mean_square = float(np.dot(row, row)) / m
    if not math.isfinite(best) or best <= _GAIN_EPS * max(1.0, mean_square):
        return value, None
    a = x.item(order.item(j, pos), j)
    b = x.item(order.item(j, pos + 1), j)
    thr = 0.5 * (a + b)
    if thr >= b:
        thr = a
    return value, (j, thr)


def fit_tree(x: np.ndarray, y: np.ndarray, max_depth: int,
             presorted: PresortedColumns | None = None) -> RegressionTree:
    """Grow a depth-limited least-squares tree with deterministic splits.

    presorted may carry a PresortedColumns built on x, to avoid re-sorting
    and keep scratch space when many trees are grown on the same covariates.
    After the call its ``leaf`` holds each training row's leaf id, so
    ``tree.value[leaf]`` equals ``tree.predict(x)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cols = presorted if presorted is not None else PresortedColumns(x)

    feature = [-1]
    threshold = [0.0]
    left = [-1]
    value = [0.0]
    stack = [(0, cols.order, 0)]
    while stack:
        node_id, order, depth = stack.pop()
        rows = order[0]
        if depth >= max_depth:
            value[node_id] = float(np.add.reduce(y[rows])) / rows.shape[0]
            cols.leaf[rows] = node_id
            continue
        value[node_id], found = _best_split(x, y, order, cols)
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
        left_id = len(feature)
        feature[node_id] = j
        threshold[node_id] = thr
        left[node_id] = left_id
        feature += (-1, -1)
        threshold += (0.0, 0.0)
        left += (-1, -1)
        value += (0.0, 0.0)
        stack.append((left_id + 1, order_right, depth + 1))
        stack.append((left_id, order_left, depth + 1))

    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
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
        self.right = np.where(internal, self.left + 1, ids)
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
        check_boosting(self.n_trees, self.max_depth, self.learning_rate)
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
