"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochint
import stochint.experiments
import stochint.parallel
from stochint.cli import MAX_GRID_POINTS, OUTPUT_ROOT_ENV, _parse_grid, main
from stochint.data import (
    DgpConfig,
    default_schema,
    generate_ihdp_like,
    load_csv,
    write_csv,
)
from stochint.nuisance import FitError

FAST = ["--outcome-kind", "ridge_linear", "--basis", "raw"]


def run_cli(*argv):
    return main([str(a) for a in argv])


def simulate_small(out_dir, n=120):
    rc = run_cli("simulate", "--out", out_dir, "--n", n, "--d", "3",
                 "--seed", "1", "--treated-fraction", "0.4")
    assert rc == 0
    return out_dir / "dataset.csv"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_dataset_truth_and_config(tmp_path):
    out = tmp_path / "sim"
    data_path = simulate_small(out, n=40)
    assert (out / "config.json").exists()
    assert (out / "truth.csv").exists()
    loaded = load_csv(data_path, default_schema(3))
    assert loaded.n_units == 40
    config = json.loads((out / "config.json").read_text())
    assert config["command"] == "simulate"
    assert config["n"] == 40
    assert config["treated_fraction_target"] == 0.4
    truth_lines = (out / "truth.csv").read_text().strip().splitlines()
    assert len(truth_lines) == 41


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    simulate_small(a)
    simulate_small(b)
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()


def test_simulate_rejects_bad_generator(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("simulate", "--out", tmp_path / "x", "--generator", "bogus")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_round_trip(tmp_path):
    data_path = simulate_small(tmp_path / "sim")
    out = tmp_path / "est"
    rc = run_cli("estimate", "--data", data_path, "--out", out,
                 "--delta", "2.0", "--folds", "3", *FAST)
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["delta"] == 2.0
    assert report["n_units"] == 120
    assert np.isfinite(report["psi_hat"])
    assert abs(report["psi_hat"]
               - (report["tau_sie"] + report["mean_outcome"])) <= 1e-12
    assert len(report["per_fold"]) == 3
    influence_lines = (out / "influence.csv").read_text().strip().splitlines()
    assert influence_lines[0] == "unit_index,q,m1,m0,phi,tau_plugin"
    assert len(influence_lines) == 121


def test_estimate_delta_grid_writes_sweep(tmp_path):
    data_path = simulate_small(tmp_path / "sim")
    out = tmp_path / "est"
    rc = run_cli("estimate", "--data", data_path, "--out", out,
                 "--folds", "3", "--delta-grid", "0:2:1", *FAST)
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "delta,psi_hat"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "1.0", "2.0"]


def test_estimate_save_then_load_models_matches(tmp_path):
    data_path = simulate_small(tmp_path / "sim")
    models = tmp_path / "models"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc = run_cli("estimate", "--data", data_path, "--out", out_a,
                 "--folds", "3", "--save-models", models, *FAST)
    assert rc == 0
    for fold in range(3):
        assert (models / f"fold{fold}.propensity.json").exists()
        assert (models / f"fold{fold}.outcome.json").exists()
    rc = run_cli("estimate", "--data", data_path, "--out", out_b,
                 "--folds", "3", "--load-models", models, *FAST)
    assert rc == 0
    report_a = json.loads((out_a / "report.json").read_text())
    report_b = json.loads((out_b / "report.json").read_text())
    for key in ("psi_hat", "tau_sie", "tau_ate_alg1"):
        assert report_a[key] == report_b[key]
    assert (out_a / "influence.csv").read_bytes() == \
        (out_b / "influence.csv").read_bytes()
    # the training RMSE path is not serialized, so loaded models report none
    for fold_a, fold_b in zip(report_a["per_fold"], report_b["per_fold"], strict=True):
        fold_a.pop("outcome_train_rmse")
        assert fold_b.pop("outcome_train_rmse") is None
        assert fold_a == fold_b


def test_estimate_load_boosted_models_reports_no_rmse(tmp_path):
    data_path = simulate_small(tmp_path / "sim")
    models = tmp_path / "models"
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "a",
                 "--folds", "2", "--n-trees", "3", "--save-models", models)
    assert rc == 0
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "b",
                 "--folds", "2", "--n-trees", "3", "--load-models", models)
    assert rc == 0
    saved = json.loads((tmp_path / "a" / "report.json").read_text())
    loaded = json.loads((tmp_path / "b" / "report.json").read_text())
    assert all(f["outcome_train_rmse"] > 0 for f in saved["per_fold"])
    assert all(f["outcome_train_rmse"] is None for f in loaded["per_fold"])
    assert saved["psi_hat"] == loaded["psi_hat"]


@pytest.mark.parametrize("flags", [("--folds", "2"), ("--seed", "7")],
                         ids=["k", "seed"])
def test_estimate_load_models_rejects_other_folds(tmp_path, capsys, flags):
    data_path = simulate_small(tmp_path / "sim")
    models = tmp_path / "models"
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "a",
                 "--folds", "3", "--seed", "0", "--save-models", models, *FAST)
    assert rc == 0
    assert json.loads((models / "folds.json").read_text()) == \
        {"n": 120, "k": 3, "seed": 0}
    out = tmp_path / "b"
    rc = run_cli("estimate", "--data", data_path, "--out", out,
                 "--folds", "3", "--seed", "0", *flags,
                 "--load-models", models, *FAST)
    assert rc == 1
    assert "folds.json records folds" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_estimate_load_models_requires_manifest(tmp_path, capsys):
    data_path = simulate_small(tmp_path / "sim")
    models = tmp_path / "models"
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "a",
                 "--folds", "3", "--save-models", models, *FAST)
    assert rc == 0
    (models / "folds.json").unlink()
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "b",
                 "--folds", "3", "--load-models", models, *FAST)
    assert rc == 1
    assert "folds.json" in capsys.readouterr().err


def test_estimate_oracle_modes_via_truth_columns(tmp_path):
    # noiseless sample: residual terms vanish, so psi reduces to the
    # oracle average q mu1 + (1 - q) mu0
    data = generate_ihdp_like(80, 3, seed=2, config=DgpConfig(noise_scale=0.0))
    data_path = tmp_path / "with_truth.csv"
    write_csv(data, data_path, schema=default_schema(3, with_truth=True))
    out = tmp_path / "est"
    rc = run_cli("estimate", "--data", data_path, "--out", out,
                 "--folds", "2", "--delta", "2.0",
                 "--covariate-cols", "x0,x1,x2",
                 "--mu0-col", "mu0", "--mu1-col", "mu1",
                 "--propensity-col", "p",
                 "--propensity-mode", "oracle", "--outcome-mode", "oracle")
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    q = 2.0 * data.truth.true_propensity \
        / (1.0 + data.truth.true_propensity)
    brute = float(np.mean(q * data.truth.mu1 + (1.0 - q) * data.truth.mu0))
    assert abs(report["psi_hat"] - brute) <= 1e-12


def test_estimate_missing_data_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "est"
    rc = run_cli("estimate", "--data", tmp_path / "absent.csv", "--out", out)
    assert rc == 1
    assert "no such file" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_estimate_save_models_rejects_oracle(tmp_path, capsys):
    data = generate_ihdp_like(80, 3, seed=3)
    data_path = tmp_path / "with_truth.csv"
    write_csv(data, data_path, schema=default_schema(3, with_truth=True))
    out = tmp_path / "est"
    rc = run_cli("estimate", "--data", data_path, "--out", out,
                 "--folds", "2", "--save-models", tmp_path / "m",
                 "--covariate-cols", "x0,x1,x2",
                 "--mu0-col", "mu0", "--mu1-col", "mu1",
                 "--propensity-col", "p",
                 "--propensity-mode", "oracle", "--outcome-mode", "oracle")
    assert rc == 1
    assert "save-models" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def _fail_if_fitted(*args, **kwargs):
    raise AssertionError("cross-fitting ran before the check that refuses the run")


@pytest.mark.parametrize("grid, message", [
    ("1:0:1", "step > 0 and hi >= lo"),
    ("nan:1:1", "must be finite"),
    ("0:inf:1", "must be finite"),
    ("0:5:x", "must be numbers"),
    ("0:1e300:1", f"more than {MAX_GRID_POINTS} points"),
    ("0:5:1e-300", f"more than {MAX_GRID_POINTS} points"),
    (f"0:{MAX_GRID_POINTS}:1", f"more than {MAX_GRID_POINTS} points"),
    (f"0:{MAX_GRID_POINTS - 0.4}:1", f"more than {MAX_GRID_POINTS} points"),
], ids=["hi-below-lo", "nan", "inf", "non-numeric", "huge-hi", "tiny-step",
        "just-over-cap", "rounds-over-cap"])
def test_estimate_bad_delta_grid_fails_before_fit(tmp_path, capsys, monkeypatch,
                                                  grid, message):
    data_path = simulate_small(tmp_path / "sim")
    monkeypatch.setattr("stochint.cli.cross_fit_records", _fail_if_fitted)
    out, models = tmp_path / "est", tmp_path / "models"
    rc = run_cli("estimate", "--data", data_path, "--out", out,
                 "--save-models", models, "--delta-grid", grid, *FAST)
    assert rc == 1
    err = capsys.readouterr().err
    assert "--delta-grid" in err and message in err
    assert [p for p in (*out.rglob("*"), *models.rglob("*")) if p.is_file()] == []


def test_delta_grid_at_cap_is_allowed():
    assert _parse_grid(f"0:{MAX_GRID_POINTS - 1}:1").size == MAX_GRID_POINTS


def test_estimate_delta_grid_from_config_needs_a_spec(tmp_path, capsys):
    data_path = simulate_small(tmp_path / "sim")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"delta_grid": 0.5}))
    rc = run_cli("estimate", "--data", data_path, "--config", cfg_path,
                 "--out", tmp_path / "est", *FAST)
    assert rc == 1
    assert "--delta-grid expects lo:hi:step" in capsys.readouterr().err


def test_estimate_save_models_rejects_oracle_before_fit(tmp_path, capsys, monkeypatch):
    data = generate_ihdp_like(80, 3, seed=3)
    data_path = tmp_path / "with_truth.csv"
    write_csv(data, data_path, schema=default_schema(3, with_truth=True))
    monkeypatch.setattr("stochint.cli.cross_fit_records", _fail_if_fitted)
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "est",
                 "--folds", "2", "--save-models", tmp_path / "m",
                 "--covariate-cols", "x0,x1,x2", "--propensity-col", "p",
                 "--propensity-mode", "oracle", *FAST)
    assert rc == 1
    assert "--save-models requires fitted" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_estimate_failed_run_removes_saved_models(tmp_path, capsys):
    # the fit succeeds and the models are written; the negative delta then
    # fails the report, and the run removes every file it wrote
    data_path = simulate_small(tmp_path / "sim")
    out, models = tmp_path / "est", tmp_path / "models"
    rc = run_cli("estimate", "--data", data_path, "--out", out, "--folds", "3",
                 "--delta", "-1", "--save-models", models, *FAST)
    assert rc == 1
    assert "delta must be finite" in capsys.readouterr().err
    assert [p for p in (*out.rglob("*"), *models.rglob("*")) if p.is_file()] == []


def test_estimate_save_models_into_load_dir_refused(tmp_path, capsys):
    data_path = simulate_small(tmp_path / "sim")
    models = tmp_path / "models"
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "a",
                 "--folds", "3", "--save-models", models, *FAST)
    assert rc == 0
    saved = {p.name: p.read_bytes() for p in models.iterdir()}
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "b",
                 "--folds", "3", "--load-models", models,
                 "--save-models", models / ".", *FAST)
    assert rc == 1
    assert "--save-models must differ" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in models.iterdir()} == saved


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 60, "d": 2, "treated_fraction_target": 0.4}))
    out = tmp_path / "sim"
    rc = run_cli("simulate", "--config", cfg_path, "--out", out, "--n", "80")
    assert rc == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["n"] == 80  # flag wins
    assert echoed["d"] == 2  # config wins over default
    loaded = load_csv(out / "dataset.csv", default_schema(2))
    assert loaded.n_units == 80


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"banana": 1}))
    out = tmp_path / "sim"
    rc = run_cli("simulate", "--config", cfg_path, "--out", out)
    assert rc == 1
    assert "unknown config keys: banana" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_malformed_config_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    rc = run_cli("simulate", "--config", cfg_path, "--out", tmp_path / "sim")
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def bench_args(out):
    return ["benchmark", "--out", out, "--generator", "ihdp",
            "--n", "150", "--d", "3", "--replications", "2",
            "--methods", "sie,ols", "--folds", "3",
            "--treated-fraction", "0.4", *FAST]


def test_benchmark_outputs_and_reruns_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*bench_args(out_a)) == 0
    assert run_cli(*bench_args(out_b)) == 0
    for table in ("epsilon_ate.csv", "replications.csv"):
        bytes_a = (out_a / "tables" / table).read_bytes()
        bytes_b = (out_b / "tables" / table).read_bytes()
        assert bytes_a == bytes_b
    eps_lines = (out_a / "tables" / "epsilon_ate.csv").read_text().strip().splitlines()
    assert len(eps_lines) == 1 + 4  # two methods x two splits
    rep_lines = (out_a / "tables" / "replications.csv").read_text().strip().splitlines()
    assert len(rep_lines) == 1 + 8


def test_benchmark_sizes_writes_by_size_table(tmp_path):
    out = tmp_path / "bench"
    rc = run_cli("benchmark", "--out", out, "--generator", "ihdp",
                 "--n", "150", "--d", "3", "--replications", "1",
                 "--methods", "ols", "--sizes", "100,150",
                 "--treated-fraction", "0.4", *FAST)
    assert rc == 0
    lines = (out / "tables" / "epsilon_by_size.csv").read_text().strip().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"100", "150"}


@pytest.mark.parametrize("workers", [1, 2])
def test_benchmark_error_names_the_failing_replication(tmp_path, capsys,
                                                       monkeypatch, workers):
    # at n=80 and seed 0, replication 0 fits and replication 1's fold 2
    # leaves too few treated units; with two workers, each fits one
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: workers)
    rc = run_cli("benchmark", "--out", tmp_path / "bench", "--n", "80",
                 "--methods", "sie", "--replications", "2", "--n-trees", "5")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: size 80 replication 1: fold 2: arm 1 has 9 units")
    assert not (tmp_path / "bench" / "tables").exists()


@pytest.mark.filterwarnings("ignore:rank-deficient least-squares design")
def test_benchmark_baseline_failure_surfaces_before_sie_failure(tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 2)
    argv = ["benchmark", "--out", tmp_path / "bench", "--n", "60",
            "--methods", "sie,ols", "--replications", "2", "--n-trees", "5"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(
        "error: size 60 replication 0: fold 1: arm 1 has 8 units")
    # an ols failure in replication 1 is reported before that sie failure
    calls = []
    real_fit = stochint.experiments.fit_per_arm_linear

    def fail_second_call(train):
        calls.append(1)
        if len(calls) == 2:
            raise FitError("per-arm linear fit needs both arms present")
        return real_fit(train)

    monkeypatch.setattr(stochint.experiments, "fit_per_arm_linear", fail_second_call)
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == (
        "error: size 60 replication 1: per-arm linear fit needs both arms present\n")


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_writes_policy_and_trace(tmp_path):
    out = tmp_path / "opt"
    rc = run_cli("optimize", "--out", out, "--generator", "op",
                 "--n", "80", "--folds", "3", "--population", "8",
                 "--generations", "5", *FAST)
    assert rc == 0
    best_lines = (out / "best_delta.csv").read_text().strip().splitlines()
    assert best_lines[0] == "unit_index,delta"
    assert len(best_lines) == 81
    deltas = np.array([float(line.split(",")[1]) for line in best_lines[1:]])
    assert deltas.min() >= 0.0 and deltas.max() <= 10.0
    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) == 6
    comparison = json.loads((out / "comparison.json").read_text())
    assert set(comparison) == {
        "expected_best", "expected_status_quo", "expected_random",
        "fitness_best", "improvement_vs_status_quo",
    }
    assert comparison["improvement_vs_status_quo"] == pytest.approx(
        comparison["expected_best"] - comparison["expected_status_quo"]
    )


def test_optimize_config_with_snapshot_every_is_refused(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"snapshot_every": 2}))
    out = tmp_path / "opt"
    rc = run_cli("optimize", "--config", cfg_path, "--out", out, "--n", "40",
                 "--folds", "2", "--population", "4", "--generations", "2", *FAST)
    assert rc == 1
    assert "unknown config keys: snapshot_every" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_optimize_from_csv_data(tmp_path):
    data_path = simulate_small(tmp_path / "sim", n=60)
    out = tmp_path / "opt"
    rc = run_cli("optimize", "--data", data_path, "--out", out,
                 "--folds", "2", "--population", "6", "--generations", "3",
                 *FAST)
    assert rc == 0
    best_lines = (out / "best_delta.csv").read_text().strip().splitlines()
    assert len(best_lines) == 61


def test_optimize_bad_bounds_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "opt"
    rc = run_cli("optimize", "--out", out, "--generator", "op", "--n", "60",
                 "--bounds", "1,2,3", "--population", "6",
                 "--generations", "2", *FAST)
    assert rc == 1
    assert "lo,hi" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


# ---------------------------------------------------------------------------
# output root resolution
# ---------------------------------------------------------------------------


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    rc = run_cli("simulate", "--n", "40", "--d", "2", "--seed", "0",
                 "--treated-fraction", "0.4")
    assert rc == 0
    assert (tmp_path / "root" / "simulate" / "dataset.csv").exists()


def test_explicit_out_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    out = tmp_path / "explicit"
    simulate_small(out, n=40)
    assert (out / "dataset.csv").exists()
    assert not (tmp_path / "root").exists()


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------


def test_importing_the_cli_loads_no_process_machinery():
    # the outcome fits fork their workers without the multiprocessing
    # machinery, so a cold import of the CLI stays as cheap as before
    src = Path(stochint.__file__).resolve().parents[1]
    code = ("import sys, stochint.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.strip() == "[]"
