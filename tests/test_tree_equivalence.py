"""The tree learner against a frozen copy of its first version.

The reference below gathers the sorted feature values and the tie mask of
every feature at every node, partitions the whole order at every split, and
predicts the training rows after each boosting round.  A boosted model's
reference prediction steps one tree at a time.  They are kept here only to
pin the learner's output bit for bit; nothing in the package uses them.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochint.trees import (
    _PREDICT_BLOCK,
    GradientBoostedRegressor,
    PresortedColumns,
    RegressionTree,
    fit_tree,
)

_GAIN_EPS = 1e-12
TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def reference_best_split(x, y, order):
    d, m = order.shape
    if m < 2:
        return None
    xs = x[order, np.arange(d)[:, None]]
    ys = y[order]
    csum = np.cumsum(ys, axis=1)
    total = csum[:, -1]
    n_left = np.arange(1, m, dtype=float)
    s_left = csum[:, :-1]
    parent = (total * total) / m
    gain = (s_left * s_left) / n_left + (total[:, None] - s_left) ** 2 / (m - n_left)
    gain -= parent[:, None]
    gain[xs[:, 1:] <= xs[:, :-1]] = -np.inf

    flat = int(np.argmax(gain))
    j, pos = divmod(flat, m - 1)
    best = gain[j, pos]
    mean_square = float(np.dot(ys[0], ys[0])) / m
    if not np.isfinite(best) or best <= _GAIN_EPS * max(1.0, mean_square):
        return None
    a, b = xs[j, pos], xs[j, pos + 1]
    thr = 0.5 * (a + b)
    if thr >= b:
        thr = a
    return int(j), float(thr), best


def reference_fit_tree(x, y, max_depth, presorted=None):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x.shape
    order0 = presorted if presorted is not None \
        else np.argsort(x, axis=0, kind="stable").T
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(rows_sorted):
        node_id = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(np.mean(y[rows_sorted[0]])))
        return node_id

    root = new_node(order0)
    stack = [(root, order0, 0)]
    while stack:
        node_id, order, depth = stack.pop()
        if depth >= max_depth:
            continue
        found = reference_best_split(x, y, order)
        if found is None:
            continue
        j, thr, _ = found
        go_left = x[:, j] <= thr
        mask = go_left[order]
        n_left = int(mask[0].sum())
        if n_left == 0 or n_left == order.shape[1]:
            continue
        order_left = order[mask].reshape(d, n_left)
        order_right = order[~mask].reshape(d, order.shape[1] - n_left)
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


def reference_tree_predict(tree, x):
    """The first RegressionTree.predict."""
    node = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        internal = feat >= 0
        if not internal.any():
            return tree.value[node]
        rows = np.flatnonzero(internal)
        go_left = x[rows, feat[rows]] <= tree.threshold[node[rows]]
        node[rows] = np.where(go_left, tree.left[node[rows]], tree.right[node[rows]])


def reference_predict(model, x):
    """The first GradientBoostedRegressor.predict: one tree at a time."""
    out = np.full(x.shape[0], model.base_)
    for tree in model.trees_:
        out += model.learning_rate * reference_tree_predict(tree, x)
    return out


def reference_boost(x, y, n_trees, max_depth, learning_rate):
    """(base, trees, train_rmse) of the first GradientBoostedRegressor.fit."""
    base = float(np.mean(y))
    trees = []
    current = np.full(x.shape[0], base)
    rmse = np.empty(n_trees)
    presorted = np.argsort(x, axis=0, kind="stable").T
    for round_idx in range(n_trees):
        residual = y - current
        tree = reference_fit_tree(x, residual, max_depth, presorted=presorted)
        current = current + learning_rate * reference_tree_predict(tree, x)
        trees.append(tree)
        rmse[round_idx] = float(np.sqrt(np.mean((y - current) ** 2)))
    return base, trees, rmse


def assert_same_tree(got, want):
    for name in TREE_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@st.composite
def problems(draw):
    """(x, y) with tied, constant and duplicated columns and flat targets."""
    n = draw(st.one_of(st.just(2), st.integers(1, 400)))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(
            ["normal", "integer", "binary", "constant", "duplicate"]))
        if kind == "normal":
            columns.append(rng.standard_normal(n))
        elif kind == "integer":
            columns.append(rng.integers(-3, 4, n).astype(float))
        elif kind == "binary":
            columns.append(rng.integers(0, 2, n).astype(float))
        elif kind == "constant":
            columns.append(np.full(n, 1.5))
        else:
            columns.append(columns[-1] if columns else rng.standard_normal(n))
    x = np.column_stack(columns)
    target = draw(st.sampled_from(["smooth", "noise", "constant", "rounded"]))
    if target == "smooth":
        y = np.sin(x[:, 0]) + 0.5 * x[:, -1] ** 2 + 0.1 * rng.standard_normal(n)
    elif target == "noise":
        y = rng.standard_normal(n)
    elif target == "constant":
        y = np.full(n, draw(st.sampled_from([0.0, 0.1, -3.0])))
    else:
        y = np.round(2.0 * rng.standard_normal(n))
    return x, y


@settings(max_examples=120, deadline=None, database=None)
@given(problem=problems(), max_depth=st.integers(1, 5),
       given_order=st.booleans())
@example(problem=(np.array([[0.0], [1.0]]), np.array([0.0, 1.0])),
         max_depth=1, given_order=False)
def test_fit_tree_matches_reference(problem, max_depth, given_order):
    x, y = problem
    presorted = np.argsort(x, axis=0, kind="stable").T if given_order else None
    want = reference_fit_tree(x, y, max_depth, presorted=presorted)
    assert_same_tree(fit_tree(x, y, max_depth, presorted=presorted), want)

    cols = PresortedColumns(x, presorted)
    got = fit_tree(x, y, max_depth, presorted=cols)
    assert_same_tree(got, want)
    assert (got.feature[cols.leaf] == -1).all()
    assert np.array_equal(got.value[cols.leaf], got.predict(x))
    assert np.array_equal(got.predict(x), reference_tree_predict(got, x))


@settings(max_examples=60, deadline=None, database=None)
@given(problem=problems(), max_depth=st.integers(1, 5),
       n_trees=st.integers(1, 10),
       learning_rate=st.sampled_from([0.1, 0.5, 1.0]))
@example(problem=(np.array([[0.0, 2.0], [1.0, 2.0]]), np.array([1.0, 3.0])),
         max_depth=2, n_trees=3, learning_rate=0.1)
def test_boosting_matches_reference(problem, max_depth, n_trees, learning_rate):
    x, y = problem
    base, trees, rmse = reference_boost(x, y, n_trees, max_depth, learning_rate)
    model = GradientBoostedRegressor(n_trees=n_trees, max_depth=max_depth,
                                     learning_rate=learning_rate).fit(x, y)
    assert np.array_equal(model.base_, base)
    assert np.array_equal(model.train_rmse_, rmse)
    assert len(model.trees_) == n_trees
    for got, want in zip(model.trees_, trees):
        assert_same_tree(got, want)
    want_pred = np.full(x.shape[0], base)
    for tree in trees:
        want_pred += learning_rate * reference_tree_predict(tree, x)
    assert np.array_equal(model.predict(x), want_pred)


def test_presorted_columns_marks_only_tied_features():
    x = np.array([[0.0, 1.0, 2.0, -0.0],
                  [1.0, 1.0, 3.0, 0.0],
                  [2.0, 0.0, 2.0, 1.0]])
    assert PresortedColumns(x).tied.tolist() == [1, 2, 3]


@settings(max_examples=60, deadline=None, database=None)
@given(problem=problems(), max_depth=st.integers(1, 5),
       n_trees=st.integers(1, 10),
       learning_rate=st.sampled_from([0.1, 0.5, 1.0]),
       n_new=st.integers(0, 2 * _PREDICT_BLOCK + 1),
       seed=st.integers(0, 2**32 - 1))
@example(problem=(np.array([[0.0], [1.0]]), np.array([0.0, 1.0])), max_depth=1,
         n_trees=2, learning_rate=0.5, n_new=2 * _PREDICT_BLOCK + 1, seed=0)
def test_predict_on_held_out_rows_matches_per_tree_loop(
        problem, max_depth, n_trees, learning_rate, n_new, seed):
    x, y = problem
    model = GradientBoostedRegressor(n_trees=n_trees, max_depth=max_depth,
                                     learning_rate=learning_rate).fit(x, y)
    # fresh rows, with some entries copied from training rows (which puts
    # them on a threshold's side exactly as in training) and some NaN
    rng = np.random.default_rng(seed)
    x_new = 2.0 * rng.standard_normal((n_new, x.shape[1]))
    copied = rng.random(x_new.shape) < 0.5
    source = x[rng.integers(0, x.shape[0], x_new.shape), np.arange(x.shape[1])]
    x_new[copied] = source[copied]
    x_new[rng.random(x_new.shape) < 0.02] = np.nan
    want = reference_predict(model, x_new)
    assert np.array_equal(model.predict(x_new), want, equal_nan=True)
    clone = GradientBoostedRegressor.from_dict(json.loads(json.dumps(model.to_dict())))
    assert np.array_equal(clone.predict(x_new), want, equal_nan=True)


def test_predict_with_single_leaf_trees_matches_per_tree_loop():
    x = np.array([[0.0, 5.0], [1.0, 4.0], [2.0, 3.0], [3.0, 2.0]])
    x_new = np.array([[-1.0, 0.0], [1.0, 9.0], [1.5, 1.0], [4.0, 4.0]])
    # a constant target gives only single-leaf trees
    flat = GradientBoostedRegressor(n_trees=3, max_depth=2).fit(x, np.full(4, 0.3))
    assert [tree.n_nodes for tree in flat.trees_] == [1, 1, 1]
    assert np.array_equal(flat.predict(x_new), reference_predict(flat, x_new))
    # the first tree fits the target exactly, so the later trees are leaves
    step = GradientBoostedRegressor(n_trees=4, max_depth=2, learning_rate=1.0)
    step.fit(x, np.array([0.0, 0.0, 1.0, 1.0]))
    assert [tree.n_nodes for tree in step.trees_] == [3, 1, 1, 1]
    assert np.array_equal(step.predict(x_new), reference_predict(step, x_new))
