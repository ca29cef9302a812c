"""Tests for the deterministic regression trees and gradient boosting."""

import tracemalloc

import numpy as np
import pytest

from stochint.trees import (
    GradientBoostedRegressor,
    PresortedColumns,
    RegressionTree,
    fit_tree,
)


def tree_depth(tree: RegressionTree) -> int:
    best = 0
    stack = [(0, 0)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        if tree.feature[node] >= 0:
            stack.append((int(tree.left[node]), depth + 1))
            stack.append((int(tree.left[node]) + 1, depth + 1))
    return best


# ---------------------------------------------------------------------------
# single trees
# ---------------------------------------------------------------------------


def test_constant_target_yields_single_leaf():
    x = np.arange(10.0).reshape(-1, 1)
    y = np.full(10, 3.5)
    tree = fit_tree(x, y, max_depth=4)
    assert tree.n_nodes == 1
    assert tree.feature[0] == -1
    assert np.allclose(tree.predict(x), 3.5)


def test_step_function_recovered_exactly():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_tree(x, y, max_depth=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5
    assert np.array_equal(tree.predict(x), y)


def test_threshold_is_midpoint_of_neighbors():
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    tree = fit_tree(x, y, max_depth=1)
    assert tree.threshold[0] == 0.5


def test_tie_breaks_toward_lowest_feature_index():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(40)
    x = np.column_stack([col, col])  # identical columns, identical gains
    y = (col > 0).astype(float)
    tree = fit_tree(x, y, max_depth=1)
    assert tree.feature[0] == 0


def test_tie_breaks_toward_lowest_threshold():
    # gains at thresholds 0.5 and 2.5 are equal by symmetry; 1.5 is worse
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    tree = fit_tree(x, y, max_depth=1)
    assert tree.threshold[0] == 0.5


def test_constant_feature_cannot_split():
    x = np.ones((6, 1))
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    tree = fit_tree(x, y, max_depth=3)
    assert tree.n_nodes == 1
    assert tree.value[0] == 0.5


def test_depth_bound_is_respected():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 3))
    y = rng.standard_normal(200)
    for depth in (1, 2, 3):
        tree = fit_tree(x, y, max_depth=depth)
        assert tree_depth(tree) <= depth


def test_fit_tree_is_deterministic():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((150, 4))
    y = rng.standard_normal(150)
    a = fit_tree(x, y, max_depth=3)
    b = fit_tree(x, y, max_depth=3)
    for name in ("feature", "threshold", "left", "value"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_presorted_matches_fresh_sort():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((80, 3))
    y = rng.standard_normal(80)
    pre = PresortedColumns(x)
    a = fit_tree(x, y, max_depth=3)
    b = fit_tree(x, y, max_depth=3, presorted=pre)
    for name in ("feature", "threshold", "left", "value"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_predict_matches_scalar_descent():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 2))
    y = rng.standard_normal(60)
    tree = fit_tree(x, y, max_depth=3)
    got = tree.predict(x)
    for i in range(60):
        node = 0
        while tree.feature[node] >= 0:
            j = tree.feature[node]
            if x[i, j] <= tree.threshold[node]:
                node = int(tree.left[node])
            else:
                node = int(tree.left[node]) + 1
        assert got[i] == tree.value[node]


# ---------------------------------------------------------------------------
# gradient boosting
# ---------------------------------------------------------------------------


def test_boosting_training_error_is_monotone():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((300, 3))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 + 0.1 * rng.standard_normal(300)
    model = GradientBoostedRegressor(n_trees=50, max_depth=3).fit(x, y)
    rmse = model.train_rmse_
    assert rmse.shape == (50,)
    assert (np.diff(rmse) <= 1e-12).all()
    assert rmse[-1] < np.std(y)


def test_boosting_fits_smooth_surface():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, (500, 2))
    y = x[:, 0] ** 2 + np.sin(2.0 * x[:, 1])
    model = GradientBoostedRegressor(n_trees=100, max_depth=3).fit(x, y)
    pred = model.predict(x)
    assert np.sqrt(np.mean((pred - y) ** 2)) < 0.2


def test_boosting_memory_is_a_few_copies_of_x():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6400, 25))
    x[:, :10] = np.round(x[:, :10])
    y = np.sin(x[:, 0]) + x[:, 1] * x[:, 12] + 0.1 * rng.standard_normal(6400)
    tracemalloc.start()
    try:
        GradientBoostedRegressor(n_trees=100).fit(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the presorted order and two levels of child orders, each x.nbytes of
    # int64, and one block of split scratch: no d x n float arrays
    assert peak <= 6 * x.nbytes, peak / x.nbytes


def test_boosting_is_deterministic():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((120, 3))
    y = rng.standard_normal(120)
    a = GradientBoostedRegressor(n_trees=20).fit(x, y).predict(x)
    b = GradientBoostedRegressor(n_trees=20).fit(x, y).predict(x)
    assert np.array_equal(a, b)


def test_boosting_validation():
    x = np.zeros((10, 2))
    y = np.zeros(10)
    with pytest.raises(ValueError):
        GradientBoostedRegressor(n_trees=0).fit(x, y)
    with pytest.raises(ValueError):
        GradientBoostedRegressor(learning_rate=0.0).fit(x, y)
    with pytest.raises(ValueError):
        GradientBoostedRegressor().fit(x, y[:5])
    with pytest.raises(ValueError):
        GradientBoostedRegressor().fit(y, y)


@pytest.mark.parametrize("where", ["x", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_boosting_rejects_non_finite_input(where, bad):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    if where == "x":
        x[3, 1] = bad
    else:
        y[7] = bad
    with pytest.raises(ValueError, match="finite"):
        GradientBoostedRegressor(n_trees=2).fit(x, y)
