"""Command-line interface: simulate | estimate | benchmark | optimize.

Settings come from built-in defaults, then an optional JSON --config file,
then explicit flags (highest precedence).  Each run echoes the settings it
used to config.json in the output directory, and output files
contain no timestamps, so re-running a configuration reproduces every file
byte for byte.  On failure all files written by the run are removed and the
exit code is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from .data import (
    OP_DEFAULTS,
    ColumnSchema,
    DgpConfig,
    load_csv,
    split_folds,
    write_csv,
    write_truth_csv,
)
from .effects import (
    NuisanceSpec,
    OutcomeSpec,
    PropensitySpec,
    _check_delta,
    cross_fit_records,
    expected_response_from_records,
    fold_diagnostics,
    read_records_csv,
    report_from_records,
    write_influence_csv,
    write_records_csv,
)
from .experiments import (
    BenchmarkConfig,
    GENERATORS,
    aggregate,
    make_dataset,
    run_benchmark,
    run_optimization,
    write_best_delta_csv,
    write_epsilon_table,
    write_json,
    write_replications,
    write_sweep_csv,
    write_trace_csv,
)
from .genetic import GaConfig
from .nuisance import BASIS_KINDS, OUTCOME_KINDS, OutcomeConfig

OUTPUT_ROOT_ENV = "STOCHINT_OUTPUT_ROOT"

# The sweep needs O(n) memory, one delta at a time, but the grid itself is
# bounded: it stops a spec such as 0:1e300:1 from allocating its grid, and
# bounds sweep.csv's size.
MAX_GRID_POINTS = 1000

# Each command's settings, in --help order, as {config key: (default, kind)}.
# kind is int, float, str or the tuple of allowed strings.  A key's flag
# is "--" plus the key with "_" as "-", except for the keys in _FLAGS.
# A (class, field, kind) declaration fills that field of a library config
# class and takes its default from it; _FIELDS lists these for _build.
_DGP = {
    "generator": ("ihdp", GENERATORS),
    "n": (747, int),
    "d": (25, int),
    "seed": (0, int),
    "noise_scale": (None, float),
    "treated_fraction_target": (None, float),
    "propensity_clip": (None, float),
    "nonlinearity": (None, float),
    "uplift_fraction": (None, float),
}

# DgpConfig overrides; left unset (None), the generator's own default holds.
_DGP_KEYS = tuple(key for key, (default, _) in _DGP.items() if default is None)

_NUISANCE = {
    "outcome_kind": (OutcomeConfig, "kind", OUTCOME_KINDS),
    "outcome_mode": (OutcomeSpec, "mode", ("fit", "oracle")),
    "n_trees": (OutcomeConfig, "n_trees", int),
    "max_depth": (OutcomeConfig, "max_depth", int),
    "learning_rate": (OutcomeConfig, "learning_rate", float),
    "ridge_penalty": (OutcomeConfig, "ridge_penalty", float),
    "min_arm_size": (OutcomeConfig, "min_arm_size", int),
    "propensity_mode": (PropensitySpec, "mode", ("fit", "oracle", "constant")),
    "basis": (PropensitySpec, "basis_kind", BASIS_KINDS),
    "clip": (PropensitySpec, "clip", float),
    "l2_penalty": (PropensitySpec, "l2_penalty", float),
    "constant_propensity": (PropensitySpec, "constant", float),
}

_SCHEMA = {
    "treatment_col": (ColumnSchema, "treatment", str),
    "outcome_col": (ColumnSchema, "outcome", str),
    "covariate_cols": (None, str),
    "mu0_col": (ColumnSchema, "mu0", str),
    "mu1_col": (ColumnSchema, "mu1", str),
    "propensity_col": (ColumnSchema, "true_propensity", str),
}

_DECLARED = {
    "simulate": _DGP,
    "estimate": {
        "data": (None, str),
        "delta": (1.0, float),
        "delta_grid": (None, str),
        "folds": (5, int),
        "seed": (0, int),
        "save_records": (None, str),
        "records": (None, str),
        **_SCHEMA,
        **_NUISANCE,
    },
    "benchmark": {
        **_DGP,
        "methods": ("sie,ols,ipwe", str),
        "replications": (BenchmarkConfig, "replications", int),
        "test_fraction": (BenchmarkConfig, "test_fraction", float),
        "folds": (BenchmarkConfig, "folds", int),
        **_NUISANCE,
    },
    "optimize": {
        "data": (None, str),
        **_DGP,
        "generator": ("op", GENERATORS),
        "n": (1000, int),
        "folds": (5, int),
        "population": (GaConfig, "population_size", int),
        "generations": (GaConfig, "generations", int),
        "crossover_rate": (GaConfig, "crossover_rate", float),
        "mutation_rate": (GaConfig, "mutation_rate", float),
        "elitism": (GaConfig, "elitism_count", int),
        "tournament": (GaConfig, "tournament_size", int),
        "sbx_eta": (GaConfig, "sbx_eta", float),
        "init_mean": (GaConfig, "init_mean", float),
        "init_std": (GaConfig, "init_std", float),
        "bounds": ("0,10", str),
        "ga_seed": (GaConfig, "seed", int),
        **_SCHEMA,
        **_NUISANCE,
    },
}

_FIELDS = {key: spec for declared in _DECLARED.values()
           for key, spec in declared.items() if len(spec) == 3}

SETTINGS = {command: {key: (spec[0].__dataclass_fields__[spec[1]].default, spec[2])
                      if len(spec) == 3 else spec for key, spec in declared.items()}
            for command, declared in _DECLARED.items()}

_FLAGS = {"treated_fraction_target": "--treated-fraction"}

_HELP = {
    "delta_grid": "lo:hi:step sweep of scalar deltas",
    "save_records": "write the held-out records CSV here",
    "records": "read held-out records instead of cross-fitting",
    "covariate_cols": "comma-separated; default: every other column",
    "methods": "comma-separated from sie,ols,ipwe",
    "bounds": "lo,hi box for deltas",
}

# the JSON types a config value of each kind may have, and how to say so;
# Python's bool is an int, so true and false are refused separately
_WANTED = {int: (int, "an integer"), float: ((int, float), "a number"),
           str: (str, "a string")}


class CliError(ValueError):
    """User-facing configuration problem."""


class _Outputs:
    """Tracks the files and directories one run makes so failures can clean up."""

    def __init__(self, out_dir: Path):
        self.dir = out_dir
        self.inputs: list[Path] = []
        self.written: list[Path] = []
        self.made: list[Path] = []  # directories, in the order they were made

    def path(self, *parts: str) -> Path:
        return self.add(self.dir.joinpath(*parts))

    def check(self, target: Path, planned=()) -> None:
        """Refuse a target the run reads, writes already or plans to write."""
        resolved = target.resolve()
        for path in self.inputs:
            if path.resolve() == resolved:
                raise CliError(f"{path} is read by this run and must not be overwritten")
        for path in (*self.written, *planned):
            if path.resolve() == resolved:
                raise CliError(f"{path} would be written twice by this run")

    def add(self, target: Path) -> Path:
        """Track a file the run writes, also outside the output directory,
        and each directory made for it; a file the run reads or already
        writes is refused."""
        self.check(target)
        self.made += [d for d in reversed(target.parents) if not d.exists()]
        target.parent.mkdir(parents=True, exist_ok=True)
        self.written.append(target)
        return target

    def cleanup(self) -> None:
        """Remove the files written, then the directories made, deepest
        first; a directory that holds anything else is kept."""
        for target in reversed(self.written):
            with suppress(OSError):
                target.unlink(missing_ok=True)
        for directory in reversed(self.made):
            with suppress(OSError):
                directory.rmdir()


def _merge_config(args: argparse.Namespace) -> dict:
    settings = SETTINGS[args.command]
    merged = {key: default for key, (default, _) in settings.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        with open(path, encoding="utf-8-sig") as handle:
            try:
                loaded = json.load(handle)
            except json.JSONDecodeError as err:
                raise CliError(f"config file {path} is not valid JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object")
        # a run's echoed config.json names its command
        command = loaded.pop("command", args.command)
        if command != args.command:
            raise CliError(f"config file {path} is for the {command} command, "
                           f"not {args.command}")
        unknown = sorted(set(loaded) - set(settings))
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            _check_config_value(key, value, *settings[key])
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in settings:
            merged[key] = value
    return merged


def _echo(command: str, merged: dict) -> dict:
    """config.json's contents: the command and the settings its run used."""
    if command == "estimate":  # --records reads p_hat, mu0 and mu1 instead
        unused = _NUISANCE if merged["records"] else {}
    elif merged.get("data"):  # optimize --data generates no data
        unused = {"generator", "n", "d", *_DGP_KEYS}
    else:  # op has 11 covariates whatever d is; only op draws an uplift
        unused = {*_SCHEMA, {"op": "d", "ihdp": "uplift_fraction"}[merged["generator"]]}
    return {"command": command, **{k: v for k, v in merged.items() if k not in unused}}


def _check_config_value(key: str, value, default, kind) -> None:
    """Refuse a config-file value whose JSON type does not fit its kind, or
    a choice outside its declared tuple, whether or not the run uses it.

    null stands for a default of None.  Flags need no check: argparse already
    converts them and checks their choices.
    """
    if value is None and default is None:
        return
    types, wanted = _WANTED[str if isinstance(kind, tuple) else kind]
    if not isinstance(value, types) or isinstance(value, bool):
        raise CliError(f"config key {key} must be {wanted}, not {json.dumps(value)}")
    if isinstance(kind, tuple) and value not in kind:
        raise CliError(f"config key {key} must be one of {', '.join(kind)}, "
                       f"not {json.dumps(value)}")


def _flag(key: str) -> str:
    return _FLAGS.get(key, "--" + key.replace("_", "-"))


def _resolve_out(args: argparse.Namespace, command: str) -> Path:
    """The output directory, which _Outputs.add makes when a file goes in."""
    out = getattr(args, "out", None)
    return Path(out) if out else Path(os.environ.get(OUTPUT_ROOT_ENV, "runs")) / command


def _dgp_from(merged: dict) -> DgpConfig:
    base = OP_DEFAULTS if merged["generator"] == "op" else DgpConfig()
    overrides = {key: merged[key] for key in _DGP_KEYS
                 if merged.get(key) is not None}
    return dataclasses.replace(base, **overrides)


def _build(cls, merged: dict, **given):
    """cls(**given), and each field a setting fills, cast to the setting's kind."""
    for key, (owner, name, kind) in _FIELDS.items():
        if owner is cls:
            value = merged[key]
            given[name] = value if value is None or isinstance(kind, tuple) else kind(value)
    return cls(**given)


def _nuisance_from(merged: dict) -> NuisanceSpec:
    return NuisanceSpec(_build(PropensitySpec, merged),
                        _build(OutcomeSpec, merged, config=_build(OutcomeConfig, merged)))


def _schema_from(merged: dict) -> ColumnSchema:
    """The column schema; load_csv infers the covariates if none are named."""
    return _build(ColumnSchema, merged,
                  covariates=_parse_tuple(merged, "covariate_cols", str))


def _checked_delta(flag: str, spec, delta):
    """delta, refused as the estimator would refuse it, naming the flag."""
    try:
        _check_delta(delta)
    except ValueError as err:
        raise CliError(f"{flag} {spec}: {err}") from None
    return delta


def _parse_grid(spec) -> np.ndarray:
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise CliError("--delta-grid expects lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise CliError(f"--delta-grid {spec}: lo, hi and step must be numbers") from None
    if not all(np.isfinite((lo, hi, step))):
        raise CliError(f"--delta-grid {spec}: lo, hi and step must be finite")
    if step <= 0 or hi < lo:
        raise CliError("--delta-grid needs step > 0 and hi >= lo")
    if not np.isfinite(hi + 0.5 * step):  # np.arange's stop, below
        raise CliError(f"--delta-grid {spec}: hi + step/2 overflows")
    # the quotient bounds what is allocated; the grid's own size is exact
    if (hi - lo) / step < MAX_GRID_POINTS:
        grid = np.arange(lo, hi + 0.5 * step, step)
        if grid.size <= MAX_GRID_POINTS:
            return _checked_delta("--delta-grid", spec, grid)
    raise CliError(f"--delta-grid {spec}: more than {MAX_GRID_POINTS} points")


def _parse_tuple(merged: dict, key: str, caster) -> tuple:
    spec = merged[key]
    try:
        return tuple(caster(part) for part in str(spec or "").split(",") if part)
    except ValueError:
        raise CliError(f"{_flag(key)} {spec}: every part must be "
                       f"{_WANTED[caster][1]}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(merged: dict, outputs: _Outputs) -> None:
    data = make_dataset(merged["generator"], int(merged["n"]), int(merged["d"]),
                        int(merged["seed"]), _dgp_from(merged))
    write_csv(dataclasses.replace(data, truth=None), outputs.path("dataset.csv"))
    write_truth_csv(data, outputs.path("truth.csv"))
    print(f"simulate: wrote {data.n_units} units, {data.n_features} covariates, "
          f"treated fraction {data.treatments.mean():.3f}, "
          f"true ATE {data.truth.ate:.6f}")


def cmd_estimate(merged: dict, outputs: _Outputs) -> None:
    if not merged["data"]:
        raise CliError("estimate requires --data")
    data = load_csv(merged["data"], _schema_from(merged))
    nuisance = _nuisance_from(merged)
    k = int(merged["folds"])
    seed = int(merged["seed"])
    # what can fail without a fit fails before it
    delta = _checked_delta("--delta", merged["delta"], float(merged["delta"]))
    grid = _parse_grid(merged["delta_grid"]) if merged["delta_grid"] else None
    save_path, records_path = merged["save_records"], merged["records"]
    # refused before the fit but not registered: a failed run must not
    # remove an earlier run's artifacts
    names = ["config.json", "report.json", "influence.csv"]
    artifacts = [outputs.dir / name
                 for name in names + ["sweep.csv"] * (grid is not None)]
    for artifact in artifacts:
        outputs.check(artifact)
    if save_path:
        outputs.check(Path(save_path), planned=artifacts)
    folds = split_folds(data.n_units, k, seed)
    if records_path:
        try:
            records = read_records_csv(records_path, data, folds)
            records.arm_terms  # the records' p_hat check, here where the file is known
        except ValueError as err:
            raise CliError(f"--records {records_path}: {err}") from None
        per_fold = fold_diagnostics(folds, data.treatments)
    else:
        records, per_fold = cross_fit_records(data, k, seed, nuisance)
    if save_path:
        write_records_csv(records, folds, outputs.add(Path(save_path)))

    report = report_from_records(records, delta, k, seed, per_fold=per_fold)
    write_json(dataclasses.asdict(report), outputs.path("report.json"))
    write_influence_csv(records, report.delta, outputs.path("influence.csv"))
    if grid is not None:
        psis = [expected_response_from_records(records, d) for d in grid]
        write_sweep_csv(grid, psis, outputs.path("sweep.csv"))
    print(f"estimate: delta {report.delta} psi_hat {report.psi_hat:.6f} "
          f"tau_sie {report.tau_sie:.6f} tau_ate_alg1 {report.tau_ate_alg1:.6f}")


def cmd_benchmark(merged: dict, outputs: _Outputs) -> None:
    cfg = _build(BenchmarkConfig, merged, generator=merged["generator"],
                 n=int(merged["n"]), d=int(merged["d"]), seed=int(merged["seed"]),
                 dgp=_dgp_from(merged), nuisance=_nuisance_from(merged),
                 methods=_parse_tuple(merged, "methods", str))
    rows = run_benchmark(cfg)
    write_epsilon_table(rows, outputs.path("tables", "epsilon_ate.csv"))
    write_replications(rows, outputs.path("tables", "replications.csv"))
    for entry in aggregate(rows):
        print(f"benchmark: {entry['method']:>4} {entry['split']:<5} "
              f"mean_epsilon {entry['mean_epsilon']:.6f} "
              f"std {entry['std_epsilon']:.6f}")


def cmd_optimize(merged: dict, outputs: _Outputs) -> None:
    for name in ("best_delta.csv", "trace.csv", "comparison.json"):
        outputs.check(outputs.dir / name)  # before the search, as estimate does
    if merged["data"]:
        data = load_csv(merged["data"], _schema_from(merged))
    else:
        data = make_dataset(merged["generator"], int(merged["n"]), int(merged["d"]),
                            int(merged["seed"]), _dgp_from(merged))
    bounds = _parse_tuple(merged, "bounds", float)
    if len(bounds) != 2:
        raise CliError("--bounds expects lo,hi")
    ga = _build(GaConfig, merged, bounds=bounds)
    run = run_optimization(data, ga, _nuisance_from(merged),
                           k=int(merged["folds"]), seed=int(merged["seed"]))
    write_best_delta_csv(run.best, outputs.path("best_delta.csv"))
    write_trace_csv(run.trace, outputs.path("trace.csv"))
    comparison = {k: v for k, v in vars(run).items() if k not in ("best", "trace")}
    write_json(comparison, outputs.path("comparison.json"))
    print(f"optimize: expected outcome {run.expected_best:.6f} "
          f"(status quo {run.expected_status_quo:.6f}, "
          f"random {run.expected_random:.6f})")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochint",
        description="Stochastic-intervention effect estimation and search.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, summary, func in (
        ("simulate", "generate a synthetic dataset with truth", cmd_simulate),
        ("estimate", "cross-fitted effect estimates from a CSV", cmd_estimate),
        ("benchmark", "replicated estimation-error benchmark", cmd_benchmark),
        ("optimize", "genetic search for per-unit deltas", cmd_optimize),
    ):
        sub = subparsers.add_parser(command, help=summary)
        sub.add_argument("--config", help="JSON config file; flags override it")
        sub.add_argument("--out", help=f"output directory (default: ${OUTPUT_ROOT_ENV}"
                                       f"/<command> or runs/<command>)")
        for key, (_, kind) in SETTINGS[command].items():
            if isinstance(kind, tuple):
                spec = {"choices": kind}
            else:
                spec = {"type": kind}
            sub.add_argument(_flag(key), dest=key, default=argparse.SUPPRESS,
                             help=_HELP.get(key), **spec)
        sub.set_defaults(func=func)
    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """Write "--flag -1:2" as "--flag=-1:2": argparse takes a separate value
    that starts with "-" and is not a plain number for a flag."""
    joined = []
    for token in argv:
        if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                and token.startswith(tuple("-" + c for c in "0123456789."))):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    outputs = _Outputs(_resolve_out(args, args.command))
    try:
        merged = _merge_config(args)
        outputs.inputs = [Path(path) for path in (args.config, merged.get("data"),
                                                  merged.get("records")) if path]
        outputs.check(outputs.dir / "config.json")  # every command echoes it
        args.func(merged, outputs)
        write_json(_echo(args.command, merged), outputs.path("config.json"))
    except Exception as err:  # report, clean partial outputs, fail loudly
        outputs.cleanup()
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
