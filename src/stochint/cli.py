"""Command-line interface: simulate | estimate | benchmark | optimize.

Settings come from built-in defaults, then an optional JSON --config file,
then explicit flags (highest precedence).  Each run echoes its resolved
configuration to config.json in the output directory, and output files
contain no timestamps, so re-running a configuration reproduces every file
byte for byte.  On failure all files written by the run are removed and the
exit code is nonzero.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import (
    OP_DEFAULTS,
    ColumnSchema,
    DgpConfig,
    default_schema,
    load_csv,
    write_csv,
    write_truth_csv,
)
from .effects import (
    NuisanceSpec,
    OutcomeSpec,
    PropensitySpec,
    cross_fit_records,
    expected_response_from_records,
    report_from_records,
    write_influence_csv,
)
from .experiments import (
    BenchmarkConfig,
    GENERATORS,
    make_dataset,
    run_benchmark,
    run_optimization,
    write_best_delta_csv,
    write_epsilon_by_size,
    write_epsilon_table,
    write_json,
    write_replications,
    write_sweep_csv,
    write_trace_csv,
)
from .genetic import GaConfig
from .nuisance import OutcomeConfig, SolverConfig, load_model, save_model

OUTPUT_ROOT_ENV = "STOCHINT_OUTPUT_ROOT"

# The sweep holds a few (points, n) arrays at once, so the grid is bounded.
MAX_GRID_POINTS = 1000

_DGP_DEFAULTS = {
    "generator": "ihdp",
    "n": 747,
    "d": 25,
    "seed": 0,
    "noise_scale": None,
    "treated_fraction_target": None,
    "propensity_clip": None,
    "nonlinearity": None,
    "uplift_fraction": None,
}

# DgpConfig overrides; left unset (None), the generator's own default holds.
_DGP_KEYS = tuple(key for key, value in _DGP_DEFAULTS.items() if value is None)

_NUISANCE_DEFAULTS = {
    "outcome_kind": "boosted_trees",
    "outcome_mode": "fit",
    "n_trees": 100,
    "max_depth": 3,
    "learning_rate": 0.1,
    "ridge_penalty": 1e-6,
    "joint_outcome": False,
    "min_arm_size": 10,
    "propensity_mode": "fit",
    "basis": "polynomial2",
    "rbf_centers": 20,
    "clip": 0.01,
    "l2_penalty": 1e-4,
    "constant_propensity": None,
}

_SCHEMA_DEFAULTS = {
    "treatment_col": "t",
    "outcome_col": "y",
    "covariate_cols": None,
    "mu0_col": None,
    "mu1_col": None,
    "propensity_col": None,
}

SIMULATE_DEFAULTS = dict(_DGP_DEFAULTS)

ESTIMATE_DEFAULTS = {
    "data": None,
    "delta": 1.0,
    "delta_grid": None,
    "folds": 5,
    "seed": 0,
    "save_models": None,
    "load_models": None,
    **_SCHEMA_DEFAULTS,
    **_NUISANCE_DEFAULTS,
}

BENCHMARK_DEFAULTS = {
    **_DGP_DEFAULTS,
    "methods": "sie,ols,ipwe",
    "replications": 50,
    "test_fraction": 0.2,
    "folds": 5,
    "replicate": "dgp",
    "sizes": None,
    **_NUISANCE_DEFAULTS,
}

OPTIMIZE_DEFAULTS = {
    "data": None,
    **_DGP_DEFAULTS,
    "generator": "op",
    "n": 1000,
    "folds": 5,
    "population": 50,
    "generations": 100,
    "crossover_rate": 0.9,
    "mutation_rate": 0.05,
    "elitism": 2,
    "tournament": 3,
    "crossover_op": "sbx",
    "sbx_eta": 15.0,
    "init_mean": 1.0,
    "init_std": 1.0,
    "bounds": "0,10",
    "ga_seed": 0,
    **_SCHEMA_DEFAULTS,
    **_NUISANCE_DEFAULTS,
}


class CliError(ValueError):
    """User-facing configuration problem."""


class _Outputs:
    """Tracks files written by one run so failures can clean up."""

    def __init__(self, out_dir: Path):
        self.dir = out_dir
        self.written: list[Path] = []

    def path(self, *parts: str) -> Path:
        return self.add(self.dir.joinpath(*parts))

    def add(self, target: Path) -> Path:
        """Track a file the run writes, also outside the output directory."""
        target.parent.mkdir(parents=True, exist_ok=True)
        self.written.append(target)
        return target

    def cleanup(self) -> None:
        for target in reversed(self.written):
            try:
                target.unlink(missing_ok=True)
            except OSError:
                pass


def _merge_config(defaults: dict, args: argparse.Namespace) -> dict:
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as handle:
            try:
                loaded = json.load(handle)
            except json.JSONDecodeError as err:
                raise CliError(f"config file {path} is not valid JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in defaults:
            merged[key] = value
    return merged


def _resolve_out(args: argparse.Namespace, command: str) -> Path:
    out = getattr(args, "out", None)
    if out:
        directory = Path(out)
    else:
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
        directory = Path(root) / command
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _dgp_from(merged: dict, generator: str) -> DgpConfig:
    base = OP_DEFAULTS if generator == "op" else DgpConfig()
    overrides = {key: merged[key] for key in _DGP_KEYS
                 if merged.get(key) is not None}
    return dataclasses.replace(base, **overrides)


def _nuisance_from(merged: dict) -> NuisanceSpec:
    outcome_cfg = OutcomeConfig(
        kind=merged["outcome_kind"],
        n_trees=int(merged["n_trees"]),
        max_depth=int(merged["max_depth"]),
        learning_rate=float(merged["learning_rate"]),
        ridge_penalty=float(merged["ridge_penalty"]),
        joint=bool(merged["joint_outcome"]),
        min_arm_size=int(merged["min_arm_size"]),
    )
    propensity = PropensitySpec(
        mode=merged["propensity_mode"],
        basis_kind=merged["basis"],
        rbf_centers=int(merged["rbf_centers"]),
        clip=float(merged["clip"]),
        constant=merged["constant_propensity"],
        solver=SolverConfig(l2_penalty=float(merged["l2_penalty"])),
    )
    return NuisanceSpec(propensity=propensity,
                        outcome=OutcomeSpec(mode=merged["outcome_mode"],
                                            config=outcome_cfg))


def _schema_from(merged: dict, data_path: str) -> ColumnSchema:
    """Build a column schema, inferring covariates from the header if needed."""
    if not Path(data_path).exists():
        raise CliError(f"no such file: {data_path}")
    covariates = merged["covariate_cols"]
    if covariates:
        cov_names = tuple(c for c in str(covariates).split(",") if c)
    else:
        with open(data_path, newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), None)
        if header is None:
            raise CliError(f"{data_path}: empty file")
        reserved = {merged["treatment_col"], merged["outcome_col"],
                    merged["mu0_col"], merged["mu1_col"],
                    merged["propensity_col"]}
        cov_names = tuple(c for c in header if c not in reserved)
    return ColumnSchema(
        treatment=merged["treatment_col"],
        outcome=merged["outcome_col"],
        covariates=cov_names,
        mu0=merged["mu0_col"],
        mu1=merged["mu1_col"],
        true_propensity=merged["propensity_col"],
    )


def _echo_config(merged: dict, command: str, outputs: _Outputs) -> None:
    payload = {"command": command, **merged}
    write_json(payload, outputs.path("config.json"))


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
    # the quotient bounds what is allocated; the grid's own size is exact
    if (hi - lo) / step < MAX_GRID_POINTS:
        grid = np.arange(lo, hi + 0.5 * step, step)
        if grid.size <= MAX_GRID_POINTS:
            return grid
    raise CliError(f"--delta-grid {spec}: more than {MAX_GRID_POINTS} points")


def _parse_tuple(spec, caster=float):
    return tuple(caster(part) for part in str(spec).split(",") if part)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace, outputs: _Outputs) -> None:
    merged = _merge_config(SIMULATE_DEFAULTS, args)
    generator = merged["generator"]
    dgp = _dgp_from(merged, generator)
    data = make_dataset(generator, int(merged["n"]), int(merged["d"]),
                        int(merged["seed"]), dgp)
    _echo_config(merged, "simulate", outputs)
    write_csv(data, outputs.path("dataset.csv"),
              schema=default_schema(data.n_features, with_truth=False))
    write_truth_csv(data, outputs.path("truth.csv"))
    print(f"simulate: wrote {data.n_units} units, {data.n_features} covariates, "
          f"treated fraction {data.treatments.mean():.3f}, "
          f"true ATE {data.truth.ate:.6f}")


def cmd_estimate(args: argparse.Namespace, outputs: _Outputs) -> None:
    merged = _merge_config(ESTIMATE_DEFAULTS, args)
    if not merged["data"]:
        raise CliError("estimate requires --data")
    schema = _schema_from(merged, merged["data"])
    data = load_csv(merged["data"], schema)
    nuisance = _nuisance_from(merged)
    k = int(merged["folds"])
    seed = int(merged["seed"])
    # what can fail without a fit fails before it
    grid = _parse_grid(merged["delta_grid"]) if merged["delta_grid"] else None
    save_dir, load_dir = merged["save_models"], merged["load_models"]
    if save_dir and load_dir and Path(save_dir).resolve() == Path(load_dir).resolve():
        raise CliError("--save-models must differ from --load-models: "
                       "a failed run removes the model files it wrote")
    fitted = nuisance.propensity.mode == "fit" and nuisance.outcome.mode == "fit"
    if save_dir and not load_dir and not fitted:
        raise CliError("--save-models requires fitted (not oracle/constant) nuisances")

    # Saved models are only held out for the fold assignment they were fit
    # on, which (n, k, seed) fixes; folds.json records it beside them.
    folds = {"n": data.n_units, "k": k, "seed": seed}
    fold_models = None
    if load_dir:
        model_dir = Path(load_dir)
        manifest = model_dir / "folds.json"
        if not manifest.exists():
            raise CliError(f"missing {manifest}; saved models need their fold manifest")
        saved = json.loads(manifest.read_text(encoding="utf-8"))
        if saved != folds:
            raise CliError(
                f"{manifest} records folds {saved} but this run uses {folds}; "
                f"the models would score units they were trained on"
            )
        fold_models = []
        for fold in range(k):
            p_path = model_dir / f"fold{fold}.propensity.json"
            o_path = model_dir / f"fold{fold}.outcome.json"
            if not p_path.exists() or not o_path.exists():
                raise CliError(f"missing saved models for fold {fold} in {model_dir}")
            fold_models.append((load_model(p_path), load_model(o_path)))
    collected: list | None = [] if save_dir else None
    records, diagnostics = cross_fit_records(data, k, seed, nuisance,
                                             collect_models=collected,
                                             fold_models=fold_models)
    if collected is not None:
        model_dir = Path(save_dir)
        for fold, (p_model, o_model) in enumerate(collected):
            save_model(p_model, outputs.add(model_dir / f"fold{fold}.propensity.json"))
            save_model(o_model, outputs.add(model_dir / f"fold{fold}.outcome.json"))
        write_json(folds, outputs.add(model_dir / "folds.json"))

    report = report_from_records(records, float(merged["delta"]), k, seed,
                                 per_fold=diagnostics)
    _echo_config(merged, "estimate", outputs)
    write_json(report.to_dict(), outputs.path("report.json"))
    write_influence_csv(report.influence, outputs.path("influence.csv"))
    if grid is not None:
        psis = expected_response_from_records(records, grid[:, None])
        write_sweep_csv(grid, psis, outputs.path("sweep.csv"))
    print(f"estimate: delta {report.delta} psi_hat {report.psi_hat:.6f} "
          f"tau_sie {report.tau_sie:.6f} tau_ate_alg1 {report.tau_ate_alg1:.6f}")


def cmd_benchmark(args: argparse.Namespace, outputs: _Outputs) -> None:
    merged = _merge_config(BENCHMARK_DEFAULTS, args)
    generator = merged["generator"]
    sizes = None
    if merged["sizes"]:
        sizes = _parse_tuple(merged["sizes"], int)
    cfg = BenchmarkConfig(
        generator=generator,
        n=int(merged["n"]),
        d=int(merged["d"]),
        dgp=_dgp_from(merged, generator),
        methods=_parse_tuple(merged["methods"], str),
        replications=int(merged["replications"]),
        test_fraction=float(merged["test_fraction"]),
        folds=int(merged["folds"]),
        seed=int(merged["seed"]),
        replicate_mode=merged["replicate"],
        sizes=sizes,
        nuisance=_nuisance_from(merged),
    )
    result = run_benchmark(cfg)
    _echo_config(merged, "benchmark", outputs)
    write_epsilon_table(result, outputs.path("tables", "epsilon_ate.csv"))
    write_replications(result, outputs.path("tables", "replications.csv"))
    if sizes and len(sizes) > 1:
        write_epsilon_by_size(result, outputs.path("tables", "epsilon_by_size.csv"))
    for entry in result.aggregate(result.sizes[0]):
        print(f"benchmark: {entry['method']:>4} {entry['split']:<5} "
              f"mean_epsilon {entry['mean_epsilon']:.6f} "
              f"std {entry['std_epsilon']:.6f}")


def cmd_optimize(args: argparse.Namespace, outputs: _Outputs) -> None:
    merged = _merge_config(OPTIMIZE_DEFAULTS, args)
    if merged["data"]:
        schema = _schema_from(merged, merged["data"])
        data = load_csv(merged["data"], schema)
    else:
        generator = merged["generator"]
        data = make_dataset(generator, int(merged["n"]), int(merged["d"]),
                            int(merged["seed"]), _dgp_from(merged, generator))
    bounds = _parse_tuple(merged["bounds"], float)
    if len(bounds) != 2:
        raise CliError("--bounds expects lo,hi")
    ga = GaConfig(
        population_size=int(merged["population"]),
        generations=int(merged["generations"]),
        crossover_rate=float(merged["crossover_rate"]),
        mutation_rate=float(merged["mutation_rate"]),
        elitism_count=int(merged["elitism"]),
        tournament_size=int(merged["tournament"]),
        crossover_operator=merged["crossover_op"],
        sbx_eta=float(merged["sbx_eta"]),
        init_mean=float(merged["init_mean"]),
        init_std=float(merged["init_std"]),
        bounds=bounds,
        seed=int(merged["ga_seed"]),
    )
    run = run_optimization(data, ga, _nuisance_from(merged),
                           k=int(merged["folds"]), seed=int(merged["seed"]))
    _echo_config(merged, "optimize", outputs)
    write_best_delta_csv(run.best, outputs.path("best_delta.csv"))
    write_trace_csv(run.trace, outputs.path("trace.csv"))
    write_json(
        {
            "expected_best": run.expected_best,
            "expected_status_quo": run.expected_status_quo,
            "expected_random": run.expected_random,
            "fitness_best": run.fitness_best,
            "improvement_vs_status_quo":
                run.expected_best - run.expected_status_quo,
        },
        outputs.path("comparison.json"),
    )
    print(f"optimize: expected outcome {run.expected_best:.6f} "
          f"(status quo {run.expected_status_quo:.6f}, "
          f"random {run.expected_random:.6f})")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--out", help=f"output directory (default: "
                                   f"${OUTPUT_ROOT_ENV}/<command> or runs/<command>)")


def _add_option(sub: argparse.ArgumentParser, name: str, **kwargs) -> None:
    sub.add_argument(name, default=argparse.SUPPRESS, **kwargs)


def _add_dgp_options(sub: argparse.ArgumentParser) -> None:
    _add_option(sub, "--generator", choices=GENERATORS)
    _add_option(sub, "--n", type=int)
    _add_option(sub, "--d", type=int)
    _add_option(sub, "--seed", type=int)
    _add_option(sub, "--noise-scale", dest="noise_scale", type=float)
    _add_option(sub, "--treated-fraction", dest="treated_fraction_target",
                type=float)
    _add_option(sub, "--propensity-clip", dest="propensity_clip", type=float)
    _add_option(sub, "--nonlinearity", type=float)
    _add_option(sub, "--uplift-fraction", dest="uplift_fraction", type=float)


def _add_nuisance_options(sub: argparse.ArgumentParser) -> None:
    _add_option(sub, "--outcome-kind", dest="outcome_kind",
                choices=("boosted_trees", "ridge_linear"))
    _add_option(sub, "--outcome-mode", dest="outcome_mode",
                choices=("fit", "oracle"))
    _add_option(sub, "--n-trees", dest="n_trees", type=int)
    _add_option(sub, "--max-depth", dest="max_depth", type=int)
    _add_option(sub, "--learning-rate", dest="learning_rate", type=float)
    _add_option(sub, "--ridge-penalty", dest="ridge_penalty", type=float)
    _add_option(sub, "--joint-outcome", dest="joint_outcome",
                action="store_true")
    _add_option(sub, "--min-arm-size", dest="min_arm_size", type=int)
    _add_option(sub, "--propensity-mode", dest="propensity_mode",
                choices=("fit", "oracle", "constant"))
    _add_option(sub, "--basis", choices=("raw", "polynomial2", "rbf"))
    _add_option(sub, "--rbf-centers", dest="rbf_centers", type=int)
    _add_option(sub, "--clip", type=float)
    _add_option(sub, "--l2-penalty", dest="l2_penalty", type=float)
    _add_option(sub, "--constant-propensity", dest="constant_propensity",
                type=float)


def _add_schema_options(sub: argparse.ArgumentParser) -> None:
    _add_option(sub, "--treatment-col", dest="treatment_col")
    _add_option(sub, "--outcome-col", dest="outcome_col")
    _add_option(sub, "--covariate-cols", dest="covariate_cols",
                help="comma-separated; default: every other column")
    _add_option(sub, "--mu0-col", dest="mu0_col")
    _add_option(sub, "--mu1-col", dest="mu1_col")
    _add_option(sub, "--propensity-col", dest="propensity_col")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochint",
        description="Stochastic-intervention effect estimation and search.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sim = subparsers.add_parser("simulate",
                                help="generate a synthetic dataset with truth")
    _add_common(sim)
    _add_dgp_options(sim)
    sim.set_defaults(func=cmd_simulate)

    est = subparsers.add_parser("estimate",
                                help="cross-fitted effect estimates from a CSV")
    _add_common(est)
    _add_option(est, "--data")
    _add_option(est, "--delta", type=float)
    _add_option(est, "--delta-grid", dest="delta_grid",
                help="lo:hi:step sweep of scalar deltas")
    _add_option(est, "--folds", type=int)
    _add_option(est, "--seed", type=int)
    _add_option(est, "--save-models", dest="save_models")
    _add_option(est, "--load-models", dest="load_models")
    _add_schema_options(est)
    _add_nuisance_options(est)
    est.set_defaults(func=cmd_estimate)

    ben = subparsers.add_parser("benchmark",
                                help="replicated estimation-error benchmark")
    _add_common(ben)
    _add_dgp_options(ben)
    _add_option(ben, "--methods", help="comma-separated from sie,ols,ipwe")
    _add_option(ben, "--replications", type=int)
    _add_option(ben, "--test-fraction", dest="test_fraction", type=float)
    _add_option(ben, "--folds", type=int)
    _add_option(ben, "--replicate", choices=("dgp", "seed"))
    _add_option(ben, "--sizes", help="comma-separated sample sizes")
    _add_nuisance_options(ben)
    ben.set_defaults(func=cmd_benchmark)

    opt = subparsers.add_parser("optimize",
                                help="genetic search for per-unit deltas")
    _add_common(opt)
    _add_option(opt, "--data")
    _add_dgp_options(opt)
    _add_option(opt, "--folds", type=int)
    _add_option(opt, "--population", type=int)
    _add_option(opt, "--generations", type=int)
    _add_option(opt, "--crossover-rate", dest="crossover_rate", type=float)
    _add_option(opt, "--mutation-rate", dest="mutation_rate", type=float)
    _add_option(opt, "--elitism", type=int)
    _add_option(opt, "--tournament", type=int)
    _add_option(opt, "--crossover-op", dest="crossover_op",
                choices=("sbx", "uniform"))
    _add_option(opt, "--sbx-eta", dest="sbx_eta", type=float)
    _add_option(opt, "--init-mean", dest="init_mean", type=float)
    _add_option(opt, "--init-std", dest="init_std", type=float)
    _add_option(opt, "--bounds", help="lo,hi box for deltas")
    _add_option(opt, "--ga-seed", dest="ga_seed", type=int)
    _add_schema_options(opt)
    _add_nuisance_options(opt)
    opt.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outputs = _Outputs(_resolve_out(args, args.command))
    try:
        args.func(args, outputs)
    except Exception as err:  # report, clean partial outputs, fail loudly
        outputs.cleanup()
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
