"""Tests for dataset containers, generators, CSV round-trips, and folds."""

import csv
import io
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochint.data
import stochint.parallel

from stochint.data import (
    ColumnSchema,
    DatasetError,
    DgpConfig,
    GroundTruth,
    ObservationalDataset,
    default_schema,
    generate_ihdp_like,
    generate_op_like,
    load_csv,
    split_folds,
    train_test_split,
    write_columns,
    write_csv,
    write_truth_csv,
)


def small_dataset(n=12, d=3, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = np.zeros(n, dtype=np.int64)
    t[: n // 2] = 1
    y = rng.standard_normal(n)
    return ObservationalDataset(covariates=x, treatments=t, outcomes=y)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_dataset_validation_rejects_bad_treatment():
    x = np.zeros((4, 2))
    y = np.zeros(4)
    t = np.array([0, 1, 2, 0])
    with pytest.raises(DatasetError, match="offending unit index 2"):
        ObservationalDataset(covariates=x, treatments=t, outcomes=y)


def test_dataset_validation_rejects_nan():
    x = np.zeros((4, 2))
    x[1, 1] = np.nan
    with pytest.raises(DatasetError, match="finite"):
        ObservationalDataset(
            covariates=x, treatments=np.array([0, 1, 0, 1]), outcomes=np.zeros(4)
        )


def test_dataset_validation_rejects_shape_mismatch():
    with pytest.raises(DatasetError):
        ObservationalDataset(
            covariates=np.zeros((4, 2)),
            treatments=np.array([0, 1, 0]),
            outcomes=np.zeros(4),
        )
    with pytest.raises(DatasetError, match="2-d"):
        ObservationalDataset(
            covariates=np.zeros(4),
            treatments=np.array([0, 1, 0, 1]),
            outcomes=np.zeros(4),
        )


def test_dataset_arrays_are_read_only():
    data = small_dataset()
    with pytest.raises(ValueError):
        data.covariates[0, 0] = 99.0
    with pytest.raises(ValueError):
        data.outcomes[0] = 99.0


def test_truth_length_must_match():
    truth = GroundTruth(mu0=np.zeros(3), mu1=np.ones(3))
    with pytest.raises(DatasetError, match="length"):
        ObservationalDataset(
            covariates=np.zeros((4, 2)),
            treatments=np.array([0, 1, 0, 1]),
            outcomes=np.zeros(4),
            truth=truth,
        )


def test_truth_propensity_must_be_interior():
    with pytest.raises(DatasetError, match="strictly"):
        GroundTruth(
            mu0=np.zeros(3), mu1=np.ones(3),
            true_propensity=np.array([0.2, 1.0, 0.5]),
        )


def test_ground_truth_ate_is_mean_difference():
    truth = GroundTruth(mu0=np.array([0.0, 1.0]), mu1=np.array([2.0, 5.0]))
    assert truth.ate == 3.0


def test_subset_preserves_order_and_truth():
    data = generate_ihdp_like(40, 3, seed=1)
    idx = np.array([5, 2, 9])
    sub = data.subset(idx)
    assert sub.n_units == 3
    assert np.array_equal(sub.covariates, data.covariates[idx])
    assert np.array_equal(sub.treatments, data.treatments[idx])
    assert np.array_equal(sub.truth.mu1, data.truth.mu1[idx])
    assert np.array_equal(
        sub.truth.true_propensity, data.truth.true_propensity[idx]
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_bit_exact(tmp_path):
    data = generate_ihdp_like(60, 4, seed=7)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    loaded = load_csv(path, default_schema(4, with_truth=True))
    assert np.array_equal(loaded.covariates, data.covariates)
    assert np.array_equal(loaded.treatments, data.treatments)
    assert np.array_equal(loaded.outcomes, data.outcomes)
    assert np.array_equal(loaded.truth.mu0, data.truth.mu0)
    assert np.array_equal(loaded.truth.mu1, data.truth.mu1)
    assert np.array_equal(
        loaded.truth.true_propensity, data.truth.true_propensity
    )


def test_load_csv_skips_a_leading_bom(tmp_path):
    data = generate_ihdp_like(20, 3, seed=8)
    path, bom = tmp_path / "data.csv", tmp_path / "bom.csv"
    write_csv(data, path)
    assert not path.read_bytes().startswith(b"\xef\xbb\xbf")  # writers add none
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    schema = default_schema(3, with_truth=True)
    plain, loaded = load_csv(path, schema), load_csv(bom, schema)
    for name in ("covariates", "treatments", "outcomes"):
        assert np.array_equal(getattr(loaded, name), getattr(plain, name))
    assert np.array_equal(loaded.truth.mu1, plain.truth.mu1)


def test_csv_without_truth_columns(tmp_path):
    data = small_dataset()
    path = tmp_path / "data.csv"
    write_csv(data, path)
    loaded = load_csv(path, default_schema(3))
    assert loaded.truth is None
    assert np.array_equal(loaded.outcomes, data.outcomes)


def test_write_csv_refuses_truth_without_a_propensity(tmp_path):
    data = small_dataset()
    truth = GroundTruth(mu0=data.outcomes, mu1=data.outcomes + 1.0)
    with pytest.raises(DatasetError, match="no propensity"):
        write_csv(replace(data, truth=truth), tmp_path / "data.csv")
    assert not (tmp_path / "data.csv").exists()


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="no such file"):
        load_csv(tmp_path / "absent.csv", default_schema(2))


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,y,x0\n1,2.0,0.5\n")
    with pytest.raises(DatasetError, match="missing column 'x1'"):
        load_csv(path, default_schema(2))


def test_load_csv_duplicated_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,y,x0,x0\n1,2.0,0.5,0.5\n")
    with pytest.raises(DatasetError, match="duplicated column 'x0'"):
        load_csv(path, default_schema(1))


def test_load_csv_reports_row_and_column_for_bad_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,y,x0\n1,2.0,0.5\n0,oops,0.1\n")
    with pytest.raises(DatasetError, match="row 2, column 'y'"):
        load_csv(path, default_schema(1))


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,y,x0\n1,inf,0.5\n")
    with pytest.raises(DatasetError, match="non-finite"):
        load_csv(path, default_schema(1))


def test_load_csv_rejects_fractional_treatment(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,y,x0\n0.5,2.0,0.5\n")
    with pytest.raises(DatasetError, match="treatment must be 0 or 1"):
        load_csv(path, default_schema(1))


def test_load_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,y,x0\n1,2.0\n")
    with pytest.raises(DatasetError, match="expected 3 fields"):
        load_csv(path, default_schema(1))


@pytest.mark.parametrize("treatment, message", [
    ("2", "row 1, column 't': treatment must be 0 or 1"),
    ("x", "row 1, column 't': cannot parse 'x'"),
], ids=["not-binary", "not-a-number"])
def test_load_csv_reports_the_treatment_before_other_cells(tmp_path, treatment,
                                                           message):
    path = tmp_path / "data.csv"
    path.write_text(f"y,x0,t\noops,0.5,{treatment}\n")
    with pytest.raises(DatasetError, match=message):
        load_csv(path, default_schema(1))


def test_load_csv_reports_an_earlier_bad_cell_before_a_later_ragged_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,y,x0\n1,2.0,0.5\n0,2.0,oops\n1,2.0,0.5\n1,2.0\n")
    with pytest.raises(DatasetError, match="row 2, column 'x0'"):
        load_csv(path, default_schema(1))


def test_load_csv_propensity_without_outcome_means_has_no_truth(tmp_path):
    data = generate_ihdp_like(40, 2, seed=8)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    schema = ColumnSchema(treatment="t", outcome="y", covariates=("x0", "x1"),
                          true_propensity="p")
    loaded = load_csv(path, schema)
    assert loaded.truth is None
    assert np.array_equal(loaded.covariates, data.covariates)
    assert np.array_equal(loaded.treatments, data.treatments)
    assert np.array_equal(loaded.outcomes, data.outcomes)


def test_load_csv_without_covariates_takes_every_unbound_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,t,mu0,y,x0,mu1\n0.5,1,0.0,2.0,-1.0,1.0\n")
    loaded = load_csv(path, ColumnSchema(treatment="t", outcome="y", covariates=(),
                                         mu0="mu0", mu1="mu1"))
    assert np.array_equal(loaded.covariates, [[0.5, -1.0]])
    path.write_text("t,y\n1,2.0\n")
    with pytest.raises(DatasetError, match="no column is left for the covariates"):
        load_csv(path, ColumnSchema(treatment="t", outcome="y", covariates=()))


def test_load_csv_width_costs_linear_time(tmp_path):
    # 16,000 inferred covariates: one header map, not one header scan per name
    d = 16000
    path = tmp_path / "wide.csv"
    cells = ",".join(str(0.5 * j) for j in range(d))
    path.write_text("t,y," + ",".join(f"x{j}" for j in range(d)) + "\n"
                    + f"1,2.0,{cells}\n0,-1.0,{cells}\n")
    start = time.perf_counter()
    loaded = load_csv(path, ColumnSchema(treatment="t", outcome="y", covariates=()))
    assert time.perf_counter() - start < 2.0
    assert np.array_equal(loaded.covariates, np.tile(0.5 * np.arange(d), (2, 1)))
    assert np.array_equal(loaded.treatments, [1, 0])
    assert np.array_equal(loaded.outcomes, [2.0, -1.0])


def test_load_csv_rejects_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DatasetError, match="empty file"):
        load_csv(empty, default_schema(1))
    header_only = tmp_path / "header.csv"
    header_only.write_text("t,y,x0\n")
    with pytest.raises(DatasetError, match="no data rows"):
        load_csv(header_only, default_schema(1))


def test_schema_rejects_partial_truth_binding():
    with pytest.raises(DatasetError, match="together"):
        ColumnSchema(treatment="t", outcome="y", covariates=("x0",), mu0="mu0")


def test_schema_rejects_duplicate_roles():
    with pytest.raises(DatasetError, match="two roles"):
        ColumnSchema(treatment="t", outcome="t", covariates=("x0",))


def test_truth_side_file(tmp_path):
    data = generate_op_like(30, seed=3)
    path = tmp_path / "truth.csv"
    write_truth_csv(data, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "unit_index,mu0,mu1,true_propensity"
    assert len(lines) == 31
    first = lines[1].split(",")
    assert float(first[1]) == float(data.truth.mu0[0])


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 2500])
def test_write_columns_matches_whole_column_rows(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = rng.uniform(-1.0, 1.0, (3, n)) * 10.0 ** rng.integers(-320, 308, (3, n))
    special = [-0.0, 0.0, 5e-324, -2.2e-308, 1e308, -1.7976931348623157e308]
    for column in floats:
        hit = rng.random(n) < 0.2
        column[hit] = rng.choice(special, hit.sum())
    single = rng.standard_normal(n).astype(np.float32)
    columns = [np.arange(n), rng.integers(-5, 5, n), *floats, single]
    header = ["unit_index", "flag", "a", "b", "c", "single"]
    write_columns(tmp_path / "blocks.csv", header, columns)
    with open(tmp_path / "whole.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*(column.tolist() for column in columns)))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@contextmanager
def _two_workers():
    """Make write_columns fork two pool workers on any host; yields the list
    of forks made."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with mock.patch.object(stochint.parallel, "usable_cpus", lambda: 2), \
            mock.patch.object(stochint.data, "usable_cpus", lambda: 2), \
            mock.patch.object(os, "fork", counted_fork):
        yield forks


_SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
            float("nan"), float("inf"), float("-inf")]
_SPECIAL32 = [0.0, -0.0, 1e-45, -1e-40, 3.4e38, -3.4e38,
              float("nan"), float("inf"), float("-inf")]
_CELLS = {
    np.int64: st.integers(-2 ** 63, 2 ** 63 - 1),
    np.float64: st.one_of(st.sampled_from(_SPECIAL), st.floats()),
    np.float32: st.one_of(st.sampled_from(_SPECIAL32), st.floats(width=32)),
    np.bool_: st.booleans(),
    # the identifiers of method names and splits, which csv.writer never quotes
    np.str_: st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1),
}


@st.composite
def _cell_columns(draw):
    n = draw(st.integers(0, 16))
    dtypes = draw(st.lists(st.sampled_from(list(_CELLS)), min_size=1, max_size=4))
    return [np.array(draw(st.lists(_CELLS[dtype], min_size=n, max_size=n)), dtype=dtype)
            for dtype in dtypes]


@settings(max_examples=60, deadline=None)
@given(columns=_cell_columns())
def test_write_columns_matches_csv_writer_in_forked_blocks(tmp_path_factory, columns):
    # blocks of 3 rows on 2 workers: 16 rows take 3 rounds of forked blocks
    header = [f"c{i}" for i in range(len(columns) - 1)] + ["needs, quotes"]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(zip(*(column.tolist() for column in columns)))
    path = tmp_path_factory.mktemp("columns") / "columns.csv"
    with mock.patch.object(stochint.data, "_WRITE_BLOCK", 3), _two_workers() as forks:
        write_columns(path, header, columns)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    assert len(forks) == (2 if len(columns[0]) > 3 else 0)


def test_write_columns_holds_one_round_of_text(tmp_path):
    # 200,000 rows of 4 columns make a file of about 10 MB; two workers
    # format rounds of two 1,024-row blocks, about 100 kB of text
    n = 200_000
    rng = np.random.default_rng(0)
    columns = [np.arange(n), rng.standard_normal(n), rng.random(n), rng.random(n) < 0.5]
    path = tmp_path / "big.csv"
    with _two_workers() as forks:
        tracemalloc.start()
        try:
            write_columns(path, ["unit_index", "a", "b", "flag"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(forks) == 2
    assert peak < path.stat().st_size / 10


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_ihdp_like_shapes_and_treated_fraction():
    data = generate_ihdp_like(747, 25, seed=0)
    assert data.covariates.shape == (747, 25)
    frac = data.treatments.mean()
    assert 0.13 <= frac <= 0.25
    p = data.truth.true_propensity
    assert p.min() >= 0.01 and p.max() <= 0.99


def test_ihdp_like_is_deterministic():
    a = generate_ihdp_like(100, 6, seed=11)
    b = generate_ihdp_like(100, 6, seed=11)
    c = generate_ihdp_like(100, 6, seed=12)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.truth.mu1, b.truth.mu1)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_ihdp_like_noiseless_outcomes_equal_arm_means():
    cfg = DgpConfig(noise_scale=0.0)
    data = generate_ihdp_like(80, 5, seed=2, config=cfg)
    mu = np.where(data.treatments == 1, data.truth.mu1, data.truth.mu0)
    assert np.array_equal(data.outcomes, mu)


def test_ihdp_like_zero_nonlinearity_is_linear_in_covariates():
    # with the smooth terms off, mu0 and mu1 - mu0 must be exactly affine:
    # fitting a plane through d+1 points reproduces all others
    cfg = DgpConfig(noise_scale=0.0, nonlinearity=0.0)
    data = generate_ihdp_like(60, 4, seed=5, config=cfg)
    design = np.column_stack([np.ones(60), data.covariates])
    for target in (data.truth.mu0, data.truth.mu1 - data.truth.mu0):
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert np.max(np.abs(design @ coef - target)) < 1e-8


def test_ihdp_like_input_validation():
    with pytest.raises(DatasetError, match="n >= 20"):
        generate_ihdp_like(10, 5, seed=0)
    with pytest.raises(DatasetError, match="d >= 2"):
        generate_ihdp_like(50, 1, seed=0)


def test_dgp_config_validation():
    with pytest.raises(DatasetError):
        DgpConfig(noise_scale=-1.0)
    with pytest.raises(DatasetError):
        DgpConfig(treated_fraction_target=1.0)
    with pytest.raises(DatasetError):
        DgpConfig(propensity_clip=0.5)
    with pytest.raises(DatasetError):
        DgpConfig(nonlinearity=-0.1)
    with pytest.raises(DatasetError):
        DgpConfig(uplift_fraction=0.0)
    for name in ("noise_scale", "nonlinearity"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(DatasetError, match=f"^{name} must be finite and >= 0$"):
                DgpConfig(**{name: value})
    # a clipped mean cannot leave (clip, 1 - clip)
    for target, clip in ((0.3, 0.4), (0.995, 0.01)):
        with pytest.raises(DatasetError, match="treated_fraction_target"):
            DgpConfig(treated_fraction_target=target, propensity_clip=clip)


def test_op_like_shapes_and_nonnegative_revenue():
    data = generate_op_like(500, seed=0)
    assert data.n_features == 11
    assert (data.outcomes >= 0).all()
    assert (data.truth.mu0 > 0).all()
    # three binary columns
    for j in (8, 9, 10):
        assert set(np.unique(data.covariates[:, j])) <= {0.0, 1.0}


def test_op_like_uplift_fraction():
    data = generate_op_like(20000, seed=1)
    frac = np.mean(data.truth.mu1 > data.truth.mu0)
    assert 0.83 <= frac <= 0.87


def test_op_like_treated_fraction_near_target():
    data = generate_op_like(20000, seed=2)
    assert abs(data.truth.true_propensity.mean() - 0.45) < 0.01


def test_op_like_noiseless_outcomes_equal_arm_means():
    cfg = DgpConfig(
        noise_scale=0.0, treated_fraction_target=0.45,
        propensity_clip=0.01, nonlinearity=1.0, uplift_fraction=0.85,
    )
    data = generate_op_like(50, seed=4, config=cfg)
    mu = np.where(data.treatments == 1, data.truth.mu1, data.truth.mu0)
    assert np.array_equal(data.outcomes, mu)


def test_op_like_is_deterministic():
    a = generate_op_like(100, seed=9)
    b = generate_op_like(100, seed=9)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.outcomes, b.outcomes)


# ---------------------------------------------------------------------------
# folds and splits
# ---------------------------------------------------------------------------


def test_split_folds_sizes_differ_by_at_most_one():
    folds = split_folds(747, 5, seed=0)
    sizes = sorted(folds.indices(f).size for f in range(5))
    assert sizes == [149, 149, 149, 150, 150]


def test_split_folds_disjoint_and_exhaustive():
    folds = split_folds(101, 4, seed=3)
    seen = np.concatenate([folds.indices(f) for f in range(4)])
    assert np.array_equal(np.sort(seen), np.arange(101))
    for f in range(4):
        inter = np.intersect1d(folds.indices(f), folds.complement(f))
        assert inter.size == 0
        union = np.union1d(folds.indices(f), folds.complement(f))
        assert np.array_equal(union, np.arange(101))


def test_split_folds_deterministic_in_seed():
    a = split_folds(60, 3, seed=5)
    b = split_folds(60, 3, seed=5)
    c = split_folds(60, 3, seed=6)
    assert np.array_equal(a.fold_of_unit, b.fold_of_unit)
    assert not np.array_equal(a.fold_of_unit, c.fold_of_unit)


def test_split_folds_validation():
    with pytest.raises(DatasetError):
        split_folds(10, 1, seed=0)
    with pytest.raises(DatasetError):
        split_folds(4, 5, seed=0)


def test_split_folds_k_equals_n():
    folds = split_folds(6, 6, seed=1)
    sizes = [folds.indices(f).size for f in range(6)]
    assert sizes == [1] * 6


def test_train_test_split_sizes_and_disjointness():
    data = generate_ihdp_like(100, 3, seed=0)
    train, test = train_test_split(data, 0.2, seed=1)
    assert train.n_units == 80
    assert test.n_units == 20
    # order-preserving subsets partition the original rows
    joined = np.concatenate([train.outcomes, test.outcomes])
    assert np.array_equal(np.sort(joined), np.sort(data.outcomes))
    assert train.truth is not None and test.truth is not None


def test_train_test_split_deterministic():
    data = generate_ihdp_like(60, 3, seed=0)
    a = train_test_split(data, 0.25, seed=7)
    b = train_test_split(data, 0.25, seed=7)
    assert np.array_equal(a[0].covariates, b[0].covariates)
    assert np.array_equal(a[1].covariates, b[1].covariates)


def test_train_test_split_validation():
    data = small_dataset()
    with pytest.raises(DatasetError):
        train_test_split(data, 0.0, seed=0)
    with pytest.raises(DatasetError):
        train_test_split(data, 1.0, seed=0)
