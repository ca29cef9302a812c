"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import stochint
import stochint.cli
import stochint.effects
import stochint.experiments
import stochint.parallel
from stochint.cli import (
    MAX_GRID_POINTS,
    OUTPUT_ROOT_ENV,
    SETTINGS,
    _merge_config,
    _parse_grid,
    build_parser,
    main,
)
from stochint.data import (
    ColumnSchema,
    DgpConfig,
    default_schema,
    generate_ihdp_like,
    load_csv,
    train_test_split,
    write_csv,
)
from stochint.effects import EstimateReport
from stochint.experiments import BenchmarkConfig, OptimizationRun, make_dataset
from stochint.genetic import GaConfig
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


def test_report_json_is_the_report_fields(tmp_path, monkeypatch):
    data_path = simulate_small(tmp_path / "sim")
    out = tmp_path / "est"
    reports = []

    def keep(*args, **kwargs):
        reports.append(stochint.effects.report_from_records(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr("stochint.cli.report_from_records", keep)
    assert run_cli("estimate", "--data", data_path, "--out", out,
                   "--delta", "2.0", "--folds", "3", *FAST) == 0
    written = json.loads((out / "report.json").read_text())
    assert set(written) == {f.name for f in fields(EstimateReport)}
    assert written == json.loads(json.dumps(asdict(reports[0])))


def test_estimate_delta_grid_writes_sweep(tmp_path):
    data_path = simulate_small(tmp_path / "sim")
    out = tmp_path / "est"
    rc = run_cli("estimate", "--data", data_path, "--out", out,
                 "--folds", "3", "--delta-grid", "0:2:1", *FAST)
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "delta,psi_hat"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "1.0", "2.0"]


MODEL_FIELDS = ("propensity_iterations", "propensity_grad_norm", "outcome_train_rmse")


def save_records(tmp_path, *flags):
    """Run estimate with --save-records; returns (data path, records path)."""
    data_path = simulate_small(tmp_path / "sim")
    records = tmp_path / "records.csv"
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "a",
                 "--folds", "3", "--seed", "0", "--save-records", records, *flags)
    assert rc == 0
    return data_path, records


def test_estimate_save_then_load_records_matches(tmp_path):
    data_path, records = save_records(tmp_path, *FAST)
    lines = records.read_text().splitlines()
    assert lines[0] == "unit_index,fold,treatment,outcome,p_hat,mu0,mu1"
    assert len(lines) == 121
    out_b = tmp_path / "b"
    rc = run_cli("estimate", "--data", data_path, "--out", out_b,
                 "--folds", "3", "--records", records, *FAST)
    assert rc == 0
    report_a = json.loads((tmp_path / "a" / "report.json").read_text())
    report_b = json.loads((out_b / "report.json").read_text())
    assert (tmp_path / "a" / "influence.csv").read_bytes() == \
        (out_b / "influence.csv").read_bytes()
    # no model is fit, so the model-only fields are null; the sizes stay
    for fold_a, fold_b in zip(report_a.pop("per_fold"), report_b.pop("per_fold"),
                              strict=True):
        assert all(fold_b.pop(key) is None for key in MODEL_FIELDS)
        assert {key: fold_a[key] for key in fold_b} == fold_b
    assert report_a == report_b


def test_estimate_reads_inputs_that_start_with_a_bom(tmp_path):
    data_path, records = save_records(tmp_path, *FAST)
    bom_copies = []
    for path in (data_path, records):
        copy = path.with_name("bom-" + path.name)
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        bom_copies.append(copy)
    common = ["estimate", "--folds", "3", "--seed", "0", *FAST]
    assert run_cli(*common, "--data", bom_copies[0], "--out", tmp_path / "b") == 0
    assert run_cli(*common, "--data", bom_copies[0], "--records", bom_copies[1],
                   "--out", tmp_path / "c") == 0
    a = (tmp_path / "a" / "influence.csv").read_bytes()
    assert (tmp_path / "b" / "influence.csv").read_bytes() == a
    assert (tmp_path / "c" / "influence.csv").read_bytes() == a


def test_estimate_records_report_no_model_fields(tmp_path):
    data_path, records = save_records(tmp_path, "--n-trees", "3")
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "b",
                 "--folds", "3", "--n-trees", "3", "--records", records)
    assert rc == 0
    saved = json.loads((tmp_path / "a" / "report.json").read_text())
    loaded = json.loads((tmp_path / "b" / "report.json").read_text())
    assert all(f["outcome_train_rmse"] > 0 and f["propensity_iterations"] > 0
               for f in saved["per_fold"])
    assert all(f[key] is None for f in loaded["per_fold"] for key in MODEL_FIELDS)
    assert saved["psi_hat"] == loaded["psi_hat"]


def test_estimate_records_echo_no_nuisance_setting(tmp_path, capsys):
    data_path, records = save_records(tmp_path, *FAST)
    common = ["estimate", "--data", data_path, "--folds", "3", "--records", records]
    # read, not fit: the nuisance settings are range-checked, then left out
    assert run_cli(*common, "--out", tmp_path / "b", "--propensity-mode", "oracle",
                   "--outcome-mode", "oracle", "--clip", "0.05") == 0
    echoed = json.loads((tmp_path / "b" / "config.json").read_text())
    assert not set(echoed) & set(stochint.cli._NUISANCE)
    assert echoed["records"] == str(records)
    assert run_cli("estimate", "--config", tmp_path / "b" / "config.json",
                   "--out", tmp_path / "c") == 0
    assert (tmp_path / "b" / "influence.csv").read_bytes() == \
        (tmp_path / "c" / "influence.csv").read_bytes()
    assert run_cli(*common, "--out", tmp_path / "d", "--clip", "0.7") == 1
    assert "clip must lie in (0, 0.5)" in capsys.readouterr().err


def truth_data(tmp_path):
    data = generate_ihdp_like(120, 3, seed=3, config=DgpConfig(treated_fraction_target=0.4))
    data_path = tmp_path / "with_truth.csv"
    write_csv(data, data_path)
    return data_path


TRUTH_COLUMNS = ["--covariate-cols", "x0,x1,x2", "--mu0-col", "mu0", "--mu1-col", "mu1",
                 "--propensity-col", "p"]


@pytest.mark.parametrize("flags", [
    ["--n-trees", "4"],
    ["--n-trees", "4", "--basis", "raw"],
    FAST,
    ["--outcome-kind", "ridge_linear",
     "--propensity-mode", "constant", "--constant-propensity", "0.3"],
    ["--outcome-kind", "ridge_linear", "--propensity-mode", "oracle"],
    ["--outcome-mode", "oracle", "--propensity-mode", "oracle"],
], ids=["boosted", "boosted-raw", "ridge", "ridge-constant",
        "ridge-oracle-propensity", "oracle-both"])
def test_estimate_records_reproduce_every_artifact(tmp_path, flags):
    data_path = truth_data(tmp_path)
    records = tmp_path / "records.csv"
    common = ["estimate", "--data", data_path, "--folds", "3", "--delta", "2.5",
              "--delta-grid", "0:3:0.5", *TRUTH_COLUMNS, *flags]
    assert run_cli(*common, "--out", tmp_path / "a", "--save-records", records) == 0
    assert run_cli(*common, "--out", tmp_path / "b", "--records", records) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    for name in ("influence.csv", "sweep.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    report_a, report_b = (json.loads((run / "report.json").read_text()) for run in (a, b))
    if all(f[key] is None for f in report_a["per_fold"] for key in MODEL_FIELDS):
        # nothing model-only to drop: the whole report is the same file
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    for fold in report_a["per_fold"]:
        fold.update(dict.fromkeys(MODEL_FIELDS))
    assert report_a == report_b


def _drop_last_row(lines):
    return lines[:-1]


def _drop_column(lines):
    return [line.rsplit(",", 1)[0] for line in lines]


def _edit_cell(column, change):
    def edit(lines):
        cells = lines[1].split(",")
        cells[column] = change(cells[column])
        return [lines[0], ",".join(cells), *lines[2:]]
    return edit


@pytest.mark.parametrize("flags, edit, message", [
    (["--folds", "2"], None, "fold column"),
    (["--seed", "7"], None, "fold column"),
    ([], _edit_cell(2, lambda t: str(1 - int(t))), "treatments or outcomes differ"),
    ([], _edit_cell(3, lambda y: repr(float(y) + 1.0)), "treatments or outcomes differ"),
    ([], _drop_last_row, "it has 119 rows"),
    ([], _drop_column, "missing column 'mu1'"),
    ([], _edit_cell(4, lambda p: "1.5"), "p_hat must lie strictly inside (0, 1)"),
], ids=["folds", "seed", "treatment", "outcome", "rows", "column", "p_hat"])
def test_estimate_records_refused(tmp_path, capsys, monkeypatch, flags, edit, message):
    data_path, records = save_records(tmp_path, *FAST)
    if edit is not None:
        lines = edit(records.read_text().splitlines())
        records.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr("stochint.cli.cross_fit_records", _fail_if_fitted)
    out, copy = tmp_path / "b", tmp_path / "copy.csv"
    rc = run_cli("estimate", "--data", data_path, "--out", out, "--folds", "3",
                 "--seed", "0", *flags, "--records", records,
                 "--save-records", copy, *FAST)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"--records {records}: " in err and message in err
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert not copy.exists()


def test_estimate_oracle_modes_via_truth_columns(tmp_path):
    # noiseless sample: residual terms vanish, so psi reduces to the
    # oracle average q mu1 + (1 - q) mu0
    data = generate_ihdp_like(80, 3, seed=2, config=DgpConfig(noise_scale=0.0))
    data_path = tmp_path / "with_truth.csv"
    write_csv(data, data_path)
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


def _fail_if_fitted(*args, **kwargs):
    raise AssertionError("cross-fitting ran before the check that refuses the run")


@pytest.mark.parametrize("grid, message, joined", [
    ("1:0:1", "step > 0 and hi >= lo", True),
    ("nan:1:1", "must be finite", True),
    ("0:inf:1", "must be finite", True),
    ("1.7e308:1.7e308:1e308", "hi + step/2 overflows", True),
    ("0:5:x", "must be numbers", True),
    ("0:1e300:1", f"more than {MAX_GRID_POINTS} points", True),
    ("0:5:1e-300", f"more than {MAX_GRID_POINTS} points", True),
    (f"0:{MAX_GRID_POINTS}:1", f"more than {MAX_GRID_POINTS} points", True),
    (f"0:{MAX_GRID_POINTS - 0.4}:1", f"more than {MAX_GRID_POINTS} points", True),
    ("-1:1:0.5", "delta must be finite and >= 0", True),
    ("-1:1:0.5", "delta must be finite and >= 0", False),
    ("-.5:1:0.5", "delta must be finite and >= 0", False),
], ids=["hi-below-lo", "nan", "inf", "overflowing-stop", "non-numeric", "huge-hi",
        "tiny-step", "just-over-cap", "rounds-over-cap", "negative-lo",
        "negative-lo-separate", "negative-fraction-lo-separate"])
def test_estimate_bad_delta_grid_fails_before_fit(tmp_path, capsys, monkeypatch,
                                                  grid, message, joined):
    data_path = simulate_small(tmp_path / "sim")
    monkeypatch.setattr("stochint.cli.cross_fit_records", _fail_if_fitted)
    out, records = tmp_path / "est", tmp_path / "records.csv"
    flags = [f"--delta-grid={grid}"] if joined else ["--delta-grid", grid]
    rc = run_cli("estimate", "--data", data_path, "--out", out,
                 "--save-records", records, *flags, *FAST)
    assert rc == 1
    err = capsys.readouterr().err
    assert "--delta-grid" in err and message in err
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert not records.exists()


@pytest.mark.parametrize("delta", ["-1", "nan", "inf"])
def test_estimate_bad_delta_fails_before_fit(tmp_path, capsys, monkeypatch, delta):
    data_path = simulate_small(tmp_path / "sim")
    monkeypatch.setattr("stochint.cli.cross_fit_records", _fail_if_fitted)
    out, records = tmp_path / "est", tmp_path / "records.csv"
    rc = run_cli("estimate", "--data", data_path, "--out", out,
                 "--save-records", records, "--delta", delta, *FAST)
    assert rc == 1
    err = capsys.readouterr().err
    assert "--delta " in err and "delta must be finite and >= 0" in err
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert not records.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--clip", "0.7", "clip must lie in (0, 0.5)"),
    ("--clip", "0", "clip must lie in (0, 0.5)"),
    ("--learning-rate", "2", "learning_rate must lie in (0, 1]"),
    ("--n-trees", "0", "n_trees and max_depth must be >= 1"),
    ("--max-depth", "0", "n_trees and max_depth must be >= 1"),
    ("--l2-penalty", "0", "l2_penalty must be finite and > 0"),
    ("--l2-penalty", "inf", "l2_penalty must be finite and > 0"),
    ("--ridge-penalty", "nan", "ridge_penalty must be finite and > 0"),
])
def test_estimate_bad_nuisance_setting_fails_before_fit(tmp_path, capsys, monkeypatch,
                                                        flag, value, message):
    data_path = simulate_small(tmp_path / "sim")
    monkeypatch.setattr("stochint.cli.cross_fit_records", _fail_if_fitted)
    out = tmp_path / "est"
    assert run_cli("estimate", "--data", data_path, "--out", out, flag, value) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("header, flags, message", [
    ("t,y,x,x", [], "data.csv: duplicated column 'x'"),
    ("t,y,x0,x1", ["--covariate-cols", "x0,x0"], "schema binds column 'x0' to two roles"),
])
def test_estimate_names_a_repeated_column(tmp_path, capsys, header, flags, message):
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n1,2.0,0.5,0.5\n0,1.0,0.1,0.2\n")
    out = tmp_path / "est"
    assert run_cli("estimate", "--data", path, "--out", out, *flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_delta_grid_at_cap_is_allowed():
    assert _parse_grid(f"0:{MAX_GRID_POINTS - 1}:1").size == MAX_GRID_POINTS


def test_estimate_delta_grid_from_config_needs_a_spec(tmp_path, capsys):
    data_path = simulate_small(tmp_path / "sim")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"delta_grid": 0.5}))
    rc = run_cli("estimate", "--data", data_path, "--config", cfg_path,
                 "--out", tmp_path / "est", *FAST)
    assert rc == 1
    assert "config key delta_grid must be a string, not 0.5" in capsys.readouterr().err


def test_estimate_failed_run_removes_saved_records(tmp_path, capsys, monkeypatch):
    # the fit succeeds and the records are written; a negative delta then
    # fails the report, and the run removes every file it wrote.  The CLI
    # refuses a negative --delta before fitting, so the report gets it here.
    data_path = simulate_small(tmp_path / "sim")
    out, records = tmp_path / "est", tmp_path / "records.csv"
    real_report = stochint.cli.report_from_records
    written = []

    def report_with_negative_delta(records_, delta, *args, **kwargs):
        written.append(records.read_text().count("\n"))
        return real_report(records_, -1.0, *args, **kwargs)

    monkeypatch.setattr("stochint.cli.report_from_records", report_with_negative_delta)
    rc = run_cli("estimate", "--data", data_path, "--out", out, "--folds", "3",
                 "--save-records", records, *FAST)
    assert rc == 1
    assert "delta must be finite" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert not records.exists()
    assert written == [121]


def test_estimate_save_records_onto_records_refused(tmp_path, capsys):
    data_path, records = save_records(tmp_path, *FAST)
    saved = records.read_bytes()
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "b",
                 "--folds", "3", "--records", records,
                 "--save-records", records.parent / "." / records.name, *FAST)
    assert rc == 1
    assert (f"{records} is read by this run and must not be overwritten"
            in capsys.readouterr().err)
    assert records.read_bytes() == saved


@pytest.mark.parametrize("name", ["influence.csv", "report.json", "config.json",
                                  "sweep.csv"])
def test_estimate_save_records_onto_an_artifact_refused(tmp_path, capsys,
                                                       monkeypatch, name):
    # the artifact would overwrite the records; the run refuses before fitting
    data_path = simulate_small(tmp_path / "sim")
    monkeypatch.setattr("stochint.cli.cross_fit_records", _fail_if_fitted)
    out = tmp_path / "est"
    rc = run_cli("estimate", "--data", data_path, "--out", out, "--folds", "3",
                 "--delta-grid", "0:2:1", "--save-records", out / "." / name, *FAST)
    assert rc == 1
    err = capsys.readouterr().err
    assert str(out / name) in err and "written twice" in err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_estimate_refusal_of_an_artifact_path_keeps_earlier_files(tmp_path, capsys):
    data_path = simulate_small(tmp_path / "sim")
    out = tmp_path / "est"
    assert run_cli("estimate", "--data", data_path, "--out", out, "--folds", "3",
                   "--save-records", out / "sweep.csv", *FAST) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # sweep.csv is an artifact only with --delta-grid
    assert set(before) == {"config.json", "report.json", "influence.csv", "sweep.csv"}
    rc = run_cli("estimate", "--data", data_path, "--out", out, "--folds", "3",
                 "--delta-grid", "0:2:1", "--save-records", out / "sweep.csv", *FAST)
    assert rc == 1
    assert "written twice" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("flag, artifact", [
    ("--data", "report.json"),
    ("--records", "influence.csv"),
    ("--config", "config.json"),
])
def test_estimate_artifact_onto_an_input_refused(tmp_path, capsys, monkeypatch,
                                                 flag, artifact):
    data_path, records = save_records(tmp_path, *FAST)
    out = tmp_path / "a"  # the earlier run's output directory
    target = out / artifact
    inputs = {"--data": data_path, "--records": records}
    if flag in inputs:
        target.write_bytes(inputs[flag].read_bytes())
        inputs[flag] = target
        argv = [arg for key, path in inputs.items() for arg in (key, path)]
    else:
        argv = ["--config", target]  # the earlier run's echo
    before = target.read_bytes()
    monkeypatch.setattr("stochint.cli.cross_fit_records", _fail_if_fitted)
    rc = run_cli("estimate", *argv, "--out", out, "--folds", "3", *FAST)
    assert rc == 1
    assert f"{target} is read by this run" in capsys.readouterr().err
    assert target.read_bytes() == before


def test_estimate_load_then_save_records_copies_them(tmp_path):
    data_path, records = save_records(tmp_path, "--n-trees", "3")
    copy = tmp_path / "copy.csv"
    rc = run_cli("estimate", "--data", data_path, "--out", tmp_path / "b",
                 "--folds", "3", "--records", records, "--save-records", copy)
    assert rc == 0
    assert copy.read_bytes() == records.read_bytes()


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


def _echoed_before_removal(command, **removed):
    """config.json as echoed by a run that still had the removed keys."""
    defaults = {key: default for key, (default, _) in SETTINGS[command].items()}
    return {"command": command, **defaults, **removed}


@pytest.mark.parametrize("command, config, flags", [
    ("estimate", {"joint_outcome": True}, []),
    ("estimate", {"rbf_centers": 20}, []),
    ("optimize", {"crossover_op": "sbx"}, []),
    ("benchmark", {"replicate": "dgp"}, []),
    ("benchmark", {"sizes": "150,160"}, []),
    ("estimate", _echoed_before_removal("estimate", joint_outcome=False,
                                        rbf_centers=20), []),
    ("benchmark", _echoed_before_removal("benchmark", joint_outcome=False,
                                         rbf_centers=20, replicate="dgp",
                                         sizes=None), []),
    ("optimize", _echoed_before_removal("optimize", joint_outcome=False,
                                        rbf_centers=20, crossover_op="sbx"), []),
    ("estimate", None, ["--joint-outcome"]),
    ("estimate", None, ["--rbf-centers", "20"]),
    ("estimate", None, ["--basis", "rbf"]),
    ("optimize", None, ["--crossover-op", "uniform"]),
    ("benchmark", None, ["--replicate", "seed"]),
    ("benchmark", None, ["--sizes", "150,160"]),
], ids=["joint_outcome", "rbf_centers", "crossover_op", "replicate", "sizes",
        "estimate-echo", "benchmark-echo", "optimize-echo", "--joint-outcome",
        "--rbf-centers", "--basis-rbf", "--crossover-op", "--replicate", "--sizes"])
def test_removed_options_are_refused(tmp_path, capsys, command, config, flags):
    out = tmp_path / "run"
    argv = [command, "--out", out, *flags]
    if config is None:  # an unknown flag or choice is argparse's usage error
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli(*argv, "--config", cfg_path) == 1
        removed = sorted(set(config) - set(SETTINGS[command]) - {"command"})
        assert capsys.readouterr().err == (
            f"error: unknown config keys: {', '.join(removed)}\n")
    assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("command, key, value, wanted", [
    ("estimate", "min_arm_size", "false", "an integer"),
    ("benchmark", "methods", 200, "a string"),
    ("estimate", "folds", 2.9, "an integer"),
    ("estimate", "folds", True, "an integer"),
    ("estimate", "delta", "2", "a number"),
    ("estimate", "clip", False, "a number"),
    ("simulate", "seed", 1.0, "an integer"),
    ("optimize", "sbx_eta", None, "a number"),
    ("simulate", "noise_scale", "big", "a number"),
    ("estimate", "constant_propensity", "0.5", "a number"),
    ("benchmark", "methods", ["sie", "ols"], "a string"),
    ("estimate", "covariate_cols", ["x0", "x1"], "a string"),
    ("estimate", "basis", 5, "a string"),
])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, command, key, value,
                                             wanted):
    data = (["--data", simulate_small(tmp_path / "sim")]
            if "data" in SETTINGS[command] else [])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    out = tmp_path / "run"
    rc = run_cli(command, "--config", cfg_path, "--out", out, *data)
    assert rc == 1
    assert f"config key {key} must be {wanted}" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("command, key, choices", [
    ("optimize", "generator", "ihdp, op"),  # --data: the run uses no generator
    ("simulate", "generator", "ihdp, op"),
    ("estimate", "basis", "raw, polynomial2"),
    ("benchmark", "outcome_kind", "boosted_trees, ridge_linear"),
])
def test_config_choice_outside_its_declaration_rejected(tmp_path, capsys, command,
                                                        key, choices):
    data = (["--data", simulate_small(tmp_path / "sim")]
            if "data" in SETTINGS[command] else [])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: "bogus"}))
    out = tmp_path / "run" / "out"
    rc = run_cli(command, "--config", cfg_path, "--out", out, *data)
    assert rc == 1
    assert capsys.readouterr().err == (
        f'error: config key {key} must be one of {choices}, not "bogus"\n')
    assert not (tmp_path / "run").exists()


def test_config_null_means_unset(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"noise_scale": None}))
    assert run_cli("simulate", "--config", cfg_path, "--out", tmp_path / "a",
                   "--n", "60", "--d", "2") == 0
    assert run_cli("simulate", "--out", tmp_path / "b", "--n", "60", "--d", "2") == 0
    for name in ("dataset.csv", "config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_parser_declares_the_settings_table(command):
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    sub = commands.choices[command]
    dests = [a.dest for a in sub._actions if a.dest not in ("help", "config", "out")]
    assert dests == list(SETTINGS[command])
    # every number passed as a flag is echoed with its declared type
    numbers = {key: kind for key, (_, kind) in SETTINGS[command].items()
               if kind in (int, float)}
    argv = [command]
    for action in sub._actions:
        if action.dest in numbers:
            argv += [action.option_strings[0], "2"]
    echoed = json.loads(json.dumps(_merge_config(parser.parse_args(argv))))
    assert {key: type(echoed[key]) for key in numbers} == numbers
    assert all(echoed[key] == 2 for key in numbers)


def test_settings_defaults_are_the_library_defaults():
    # these settings keep a literal copy of a library default; every other
    # setting that fills a config field reads the field's default
    bench = BenchmarkConfig()
    library = {
        "benchmark": {"generator": bench.generator, "n": bench.n, "d": bench.d,
                      "seed": bench.seed, "methods": bench.methods},
        "optimize": {"bounds": GaConfig().bounds},
    }
    parse = {"methods": lambda spec: tuple(spec.split(",")),
             "bounds": lambda spec: tuple(float(part) for part in spec.split(","))}
    for command, want in library.items():
        defaults = {key: SETTINGS[command][key][0] for key in want}
        assert {key: parse.get(key, lambda value: value)(value)
                for key, value in defaults.items()} == want


def test_column_settings_default_to_the_schema_defaults():
    for command in ("estimate", "optimize"):
        settings = SETTINGS[command]
        assert settings["treatment_col"][0] == ColumnSchema().treatment == "t"
        assert settings["outcome_col"][0] == ColumnSchema().outcome == "y"


def test_config_number_accepts_json_integer(tmp_path):
    data_path = simulate_small(tmp_path / "sim")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"delta": 2, "folds": 3, "ridge_penalty": 1}))
    out = tmp_path / "est"
    rc = run_cli("estimate", "--config", cfg_path, "--data", data_path, "--out", out,
                 *FAST)
    assert rc == 0
    echoed = json.loads((out / "config.json").read_text())
    assert (echoed["delta"], echoed["folds"], echoed["ridge_penalty"]) == (2, 3, 1)
    assert json.loads((out / "report.json").read_text())["k"] == 3


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--n", "60", "--d", "2", "--seed", "4", "--noise-scale", "0.5"]),
    ("estimate", ["--folds", "3", "--delta", "1.5", "--delta-grid", "0:2:0.5", *FAST]),
    ("benchmark", ["--n", "150", "--d", "3", "--replications", "2",
                   "--folds", "3", "--treated-fraction", "0.4", "--clip", "0.02", *FAST]),
    ("optimize", ["--generator", "op", "--n", "80", "--folds", "3", "--population", "8",
                  "--generations", "5", "--sbx-eta", "3", *FAST]),
], ids=["simulate", "estimate", "benchmark", "optimize"])
def test_config_json_replays_the_run(tmp_path, command, flags):
    if command == "estimate":
        flags = ["--data", simulate_small(tmp_path / "sim"), *flags]
    first, again = tmp_path / "a", tmp_path / "b"
    assert run_cli(command, "--out", first, *flags) == 0
    assert run_cli(command, "--config", first / "config.json", "--out", again) == 0
    written = sorted(path.relative_to(first) for path in first.rglob("*"))
    assert sorted(path.relative_to(again) for path in again.rglob("*")) == written
    assert "config.json" in map(str, written)
    for name in written:
        if (first / name).is_file():
            assert (first / name).read_bytes() == (again / name).read_bytes()


_GENERATOR_KEYS = ["generator", "n", "d", "noise_scale", "treated_fraction_target",
                   "propensity_clip", "nonlinearity", "uplift_fraction"]
_SCHEMA_KEYS = ["treatment_col", "outcome_col", "covariate_cols", "mu0_col", "mu1_col",
                "propensity_col"]
_SEARCH = ["--folds", "2", "--population", "6", "--generations", "2", *FAST]
_BENCH = ["--n", "100", "--replications", "2", "--methods", "ols,ipwe", "--folds", "3",
          *FAST]


@pytest.mark.parametrize("command, flags, absent, kept", [
    ("optimize", ["--data", "DATA", "--n", "5", "--generator", "ihdp",
                  "--noise-scale", "3", *_SEARCH], _GENERATOR_KEYS, ["seed", "folds"]),
    ("optimize", ["--n", "80", "--d", "40", *_SEARCH], [*_SCHEMA_KEYS, "d"],
     ["generator", "n", "seed", "uplift_fraction"]),
    ("simulate", ["--generator", "op", "--n", "60", "--d", "40"], ["d"],
     ["n", "uplift_fraction"]),
    ("benchmark", ["--generator", "op", "--d", "40", *_BENCH], ["d"],
     ["n", "uplift_fraction"]),
    ("simulate", ["--n", "60", "--d", "3", "--uplift-fraction", "0.3"],
     ["uplift_fraction"], ["n", "d"]),
    ("benchmark", ["--d", "3", "--uplift-fraction", "0.3", *_BENCH],
     ["uplift_fraction"], ["n", "d"]),
], ids=["optimize-data", "optimize-generated", "simulate-op-d", "benchmark-op-d",
        "simulate-ihdp-uplift", "benchmark-ihdp-uplift"])
def test_config_json_leaves_out_unused_settings(tmp_path, command, flags, absent, kept):
    data_path = str(simulate_small(tmp_path / "sim")) if "DATA" in flags else None
    flags = [data_path if flag == "DATA" else flag for flag in flags]
    first, again = tmp_path / "a", tmp_path / "b"
    assert run_cli(command, "--out", first, *flags) == 0
    echoed = json.loads((first / "config.json").read_text())
    assert not set(absent) & set(echoed)
    assert set(kept) <= set(echoed)
    # the settings left out change nothing: the echo replays the run
    assert run_cli(command, "--config", first / "config.json", "--out", again) == 0
    written = sorted(path.relative_to(first) for path in first.rglob("*") if path.is_file())
    assert sorted(path.relative_to(again) for path in again.rglob("*")
                  if path.is_file()) == written
    for name in written:
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_config_json_of_another_command_refused(tmp_path, capsys):
    simulate_small(tmp_path / "sim")
    out = tmp_path / "opt"
    rc = run_cli("optimize", "--config", tmp_path / "sim" / "config.json", "--out", out)
    assert rc == 1
    assert "is for the simulate command, not optimize" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_malformed_config_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    rc = run_cli("simulate", "--config", cfg_path, "--out", tmp_path / "sim")
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_config_may_start_with_a_bom(tmp_path):
    cfg_path = tmp_path / "bom.json"
    cfg_path.write_text('{"n": 50, "d": 2}', encoding="utf-8-sig")
    assert run_cli("simulate", "--config", cfg_path, "--out", tmp_path / "sim") == 0
    assert (tmp_path / "sim" / "dataset.csv").read_text().count("\n") == 51


@pytest.mark.parametrize("argv, made", [
    (["benchmark", "--out", "ob", "--n", "150", "--d", "3", "--outcome-mode", "oracle"],
     "ob"),
    (["estimate", "--data", "missing.csv", "--out", "a/b"], "a"),
    (["simulate", "--config", "bom.json", "--out", "s"], "s"),
], ids=["benchmark", "estimate", "simulate"])
def test_failed_run_leaves_no_directory_it_made(tmp_path, monkeypatch, capsys, argv,
                                                made):
    monkeypatch.chdir(tmp_path)
    Path("bom.json").write_text('{"n": "many"}', encoding="utf-8-sig")
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bom.json"]


def test_failed_run_keeps_directories_it_did_not_make(tmp_path, capsys, monkeypatch):
    # the records' parents are made for the run and removed with the records;
    # the output directory existed before it and holds another file
    monkeypatch.setattr("stochint.cli.report_from_records", pytest.fail)
    data_path = simulate_small(tmp_path / "sim")
    out, records = tmp_path / "est", tmp_path / "deep" / "er" / "records.csv"
    (out / "tables").mkdir(parents=True)
    rc = run_cli("estimate", "--data", data_path, "--out", out, "--folds", "3",
                 "--save-records", records, *FAST)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "deep").exists()
    assert [path.name for path in out.rglob("*")] == ["tables"]


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


def test_benchmark_oracle_outcome_refused_before_any_replication(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(stochint.experiments, "make_dataset", pytest.fail)
    rc = run_cli(*bench_args(tmp_path / "bench"), "--outcome-mode", "oracle")
    assert rc == 1
    assert "outcome mode 'oracle'" in capsys.readouterr().err
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


@pytest.mark.parametrize("flag, value, message", [
    ("--folds", "1", "folds must be >= 2"),  # although ols never cross-fits
    ("--test-fraction", "nan", "test_fraction must lie in (0, 1)"),
], ids=["one-fold", "nan-test-fraction"])
def test_benchmark_bad_split_settings_refused_before_any_replication(
        tmp_path, capsys, monkeypatch, flag, value, message):
    monkeypatch.setattr(stochint.experiments, "make_dataset", pytest.fail)
    out = tmp_path / "bench"
    rc = run_cli("benchmark", "--out", out, "--n", "150", "--d", "3",
                 "--methods", "ols", flag, value)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:rank-deficient least-squares design")
def test_benchmark_first_failing_replication_wins(tmp_path, capsys, monkeypatch):
    # at n=60, every replication's sie fails, replication 0's in fold 1; ols
    # is made to fail on one replication's training data, which a worker
    # sees as well as this process
    monkeypatch.setattr(stochint.parallel, "usable_cpus", lambda: 2)
    real_fit = stochint.experiments.fit_per_arm_linear

    def ols_fails_on(rep):
        data = make_dataset("ihdp", 60, 25, seed=1 + rep)
        outcomes = train_test_split(data, 0.2, 1 + rep)[0].outcomes

        def fit(train):
            if np.array_equal(train.outcomes, outcomes):
                raise FitError(f"ols fails on replication {rep}'s data")
            return real_fit(train)
        return fit

    def first_error(rep, methods):
        monkeypatch.setattr(stochint.experiments, "fit_per_arm_linear",
                            ols_fails_on(rep))
        assert run_cli("benchmark", "--out", tmp_path / "bench", "--n", "60",
                       "--methods", methods, "--replications", "2",
                       "--n-trees", "5") == 1
        return capsys.readouterr().err

    sie_error = "error: size 60 replication 0: fold 1: arm 1 has 8 units"
    # replication 0 fails before replication 1, whatever the method
    assert first_error(1, "ols,sie").startswith(sie_error)
    # within a replication, methods fail in --methods order
    assert first_error(0, "sie,ols").startswith(sie_error)
    assert first_error(0, "ols,sie") == (
        "error: size 60 replication 0: ols fails on replication 0's data\n")
    assert not (tmp_path / "bench" / "tables").exists()


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


def test_comparison_json_is_the_run_fields(tmp_path, monkeypatch):
    out = tmp_path / "opt"
    runs = []

    def keep(*args, **kwargs):
        runs.append(stochint.experiments.run_optimization(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("stochint.cli.run_optimization", keep)
    assert run_cli("optimize", "--out", out, "--n", "80", "--folds", "3",
                   "--population", "8", "--generations", "5", *FAST) == 0
    written = json.loads((out / "comparison.json").read_text())
    scalars = {f.name for f in fields(OptimizationRun)} - {"best", "trace"}
    assert set(written) == scalars
    assert written == json.loads(json.dumps({k: getattr(runs[0], k) for k in scalars}))


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


def test_optimize_artifact_onto_data_refused_before_the_search(tmp_path, capsys,
                                                               monkeypatch):
    data_path = simulate_small(tmp_path / "sim")
    out = tmp_path / "opt"
    out.mkdir()
    target = out / "trace.csv"
    target.write_bytes(data_path.read_bytes())
    (out / "best_delta.csv").write_text("an earlier run's file\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr("stochint.cli.run_optimization", _fail_if_fitted)
    rc = run_cli("optimize", "--data", target, "--out", out, *FAST)
    assert rc == 1
    assert f"{target} is read by this run" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--bounds", "a,b"], "--bounds a,b: every part must be a number"),
    (["benchmark", "--methods", "ols,ols"], "methods lists ols more than once"),
], ids=["bounds", "methods-repeated"])
def test_list_option_error_names_its_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    rc = run_cli(*argv, "--out", out, "--n", "60", *FAST)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_optimize_negative_bound_reaches_the_bounds_check(tmp_path, capsys):
    # the value is the same whether given as a separate token or after "="
    for flags in (["--bounds=-1,10"], ["--bounds", "-1,10"]):
        out = tmp_path / "opt"
        rc = run_cli("optimize", "--out", out, "--generator", "op", "--n", "60",
                     *flags, "--population", "6", "--generations", "2", *FAST)
        assert rc == 1
        assert "bounds must be finite with 0 <= lo < hi" in capsys.readouterr().err
        assert [p for p in out.rglob("*") if p.is_file()] == []


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
    # machinery, and only the genetic search maps shared memory, so a cold
    # import of the CLI stays as cheap as before
    src = Path(stochint.__file__).resolve().parents[1]
    code = ("import sys, stochint.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing', "
            "'mmap') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.strip() == "[]"
