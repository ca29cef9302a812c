"""Outside-in tracer for one stochint CLI run.

Run as a program, it imports the package, wraps its public functions and a
few class methods with span recorders, runs ``stochint.cli.main`` on the
given arguments, and writes the spans and counts it kept in memory to a JSON
file when the run ends:

    python perfbench/tracing.py SPANS.json -- estimate --data d.csv ...

Nothing under ``src/`` is changed.  The package imports its helpers with
``from .x import f``, so a function is wrapped under every module name that
refers to it, not only in the module that defines it.  A span is named
``<layer>.<function>``, where the layer is the defining module.

``summarize`` turns such a file into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("data", "nuisance", "trees", "effects", "genetic", "experiments", "cli")

# Class methods traced in addition to the module-level public functions.
METHODS = (
    ("trees", "GradientBoostedRegressor", "fit"),
    ("trees", "GradientBoostedRegressor", "predict"),
    ("trees", "RegressionTree", "predict"),
    ("nuisance", "BasisExpansion", "expand"),
)

WRITER_PREFIX = "write_"


def _observe_propensity(counts, args, kwargs, model):
    data = args[0] if args else kwargs["data"]
    cols = model.basis.output_dim
    counts["newton_iters"] = counts.get("newton_iters", 0) + model.n_iter
    counts["basis_cols"] = max(counts.get("basis_cols", 0), cols)
    counts["design_bytes"] = max(counts.get("design_bytes", 0),
                                 data.n_units * cols * 8)


def _observe_boosting(counts, args, kwargs, model):
    x = args[1] if len(args) > 1 else kwargs["x"]
    counts["row_rounds"] = counts.get("row_rounds", 0) + len(x) * model.n_trees


def _observe_tree(counts, args, kwargs, tree):
    counts["nodes"] = counts.get("nodes", 0) + tree.n_nodes


def _observe_search(counts, args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    counts["units"] = records.n


OBSERVERS = {
    "nuisance.fit_propensity": _observe_propensity,
    "trees.GradientBoostedRegressor.fit": _observe_boosting,
    "trees.fit_tree": _observe_tree,
    "genetic.optimize_records": _observe_search,
}


class Tracer:
    """Keeps spans as [name, start, end, parent index] plus named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, func, *args, **kwargs):
        record = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(record)

    def wrap(self, name: str, func):
        observe = OBSERVERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public stochint function under each name that refers to it.

    Functions defined in ``stochint.cli`` stay unwrapped: the time spent in
    them is the cli layer's self time.
    """
    modules = {layer: importlib.import_module(f"stochint.{layer}") for layer in LAYERS}
    layer_of = {module.__name__: layer for layer, module in modules.items()}
    wrappers = {}
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = layer_of.get(obj.__module__)
            if layer is None or layer == "cli":
                continue
            if obj not in wrappers:
                wrappers[obj] = tracer.wrap(f"{layer}.{obj.__name__}", obj)
            setattr(module, attr, wrappers[obj])
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method,
                tracer.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))


def trace_cli(argv: list[str]) -> tuple[int, dict]:
    """Import, wrap and run the CLI in this process; return (exit code, trace)."""
    start = time.perf_counter()
    tracer = Tracer()
    cli = tracer.call("cli.import", importlib.import_module, "stochint.cli")
    install(tracer)
    code = tracer.call("cli.main", cli.main, argv)
    end = time.perf_counter()
    return code, {"start": start, "end": end, "spans": tracer.spans,
                  "counts": tracer.counts}


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def _self_times(spans: list) -> list[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (0 where a layer did no such work)."""
    spans = trace["spans"]
    counts = trace["counts"]
    wall = trace["end"] - trace["start"]
    durations: dict[str, list[float]] = {}
    for name, start, end, _ in spans:
        durations.setdefault(name, []).append(end - start)
    own = _self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), value in zip(spans, own):
        layer_self[name.split(".")[0]] += value

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    def median(name: str) -> float:
        values = durations.get(name)
        return statistics.median(values) if values else 0.0

    def p90(name: str) -> float:
        """The 90th percentile, or 0 when fewer than ten calls lie beyond it."""
        values = durations.get(name, ())
        return statistics.quantiles(values, n=10)[-1] if len(values) >= 100 else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    def is_writer(index: int) -> bool:
        return index >= 0 and spans[index][0].rsplit(".", 1)[-1].startswith(WRITER_PREFIX)

    # Outermost writer spans only, so a writer calling another counts once.
    write_s = sum(end - start for i, (_, start, end, parent) in enumerate(spans)
                  if is_writer(i) and not is_writer(parent))
    import_s = total("cli.import")
    main_s = total("cli.main")
    main_self = sum(value for (name, *_), value in zip(spans, own) if name == "cli.main")
    search_s = total("genetic.optimize_records")

    metrics = {
        "data.load_csv_s": total("data.load_csv"),
        "data.make_dataset_s": total("data.generate_ihdp_like") + total("data.generate_op_like"),
        "data.write_csv_s": total("data.write_csv") + total("data.write_truth_csv"),
        "nuisance.fit_propensity_s": total("nuisance.fit_propensity"),
        "nuisance.fit_propensity_median_s": median("nuisance.fit_propensity"),
        "nuisance.expand_s": total("nuisance.BasisExpansion.expand"),
        "nuisance.newton_iters": counts.get("newton_iters", 0),
        "nuisance.basis_cols": counts.get("basis_cols", 0),
        "nuisance.design_mb": counts.get("design_bytes", 0) / 1e6,
        "nuisance.fit_outcome_s": total("nuisance.fit_outcome"),
        "trees.gbr_fit_s": total("trees.GradientBoostedRegressor.fit"),
        "trees.gbr_fit_median_s": median("trees.GradientBoostedRegressor.fit"),
        "trees.gbr_fit_p90_s": p90("trees.GradientBoostedRegressor.fit"),
        "trees.gbr_fit_calls": calls("trees.GradientBoostedRegressor.fit"),
        "trees.fit_tree_calls": calls("trees.fit_tree"),
        "trees.nodes": counts.get("nodes", 0),
        "trees.row_rounds_per_s": ratio(counts.get("row_rounds", 0),
                                        total("trees.GradientBoostedRegressor.fit")),
        "trees.tree_predict_s": total("trees.RegressionTree.predict"),
        "trees.tree_predict_calls": calls("trees.RegressionTree.predict"),
        "effects.cross_fit_s": total("effects.cross_fit_records"),
        "effects.report_s": total("effects.report_from_records"),
        "effects.m_term_calls": calls("effects.m_term"),
        "genetic.optimize_s": search_s,
        "genetic.fitness_s": total("genetic.fitness"),
        "genetic.fitness_calls": calls("genetic.fitness"),
        "genetic.unit_evals_per_s": ratio(calls("genetic.fitness") * counts.get("units", 0),
                                          search_s),
        "experiments.run_benchmark_s": total("experiments.run_benchmark"),
        "experiments.run_optimization_s": total("experiments.run_optimization"),
        "cli.import_s": import_s,
        "cli.write_s": write_s,
        "cli.trace_coverage_frac": ratio(import_s + main_s - main_self, wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


# Counts that depend only on the code and its inputs; they must repeat exactly.
DETERMINISTIC_COUNTS = (
    "nuisance.newton_iters", "nuisance.basis_cols", "trees.gbr_fit_calls",
    "trees.fit_tree_calls", "trees.nodes", "trees.tree_predict_calls",
    "effects.m_term_calls", "genetic.fitness_calls",
)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <stochint cli arguments>", file=sys.stderr)
        return 2
    code, trace = trace_cli(argv[2:])
    trace["exit_code"] = code
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
