"""Checks of the benchmark itself.

    python -m pytest perfbench

The count test runs every workload twice under the tracer (about two
minutes on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import DETERMINISTIC_COUNTS, LAYERS, summarize  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_exactly_across_traced_runs(workload):
    inv = run.Invocation(workload, seed=0, seconds=0, trace=True)
    inv.setup()
    counts = []
    for index in range(2):
        _, spans = inv.measured(index, traced=True)
        metrics = summarize(json.loads(spans.read_text(encoding="utf-8")))
        counts.append({name: metrics[name] for name in DETERMINISTIC_COUNTS})
    assert inv.failures == []
    assert counts[0] == counts[1]
    assert metrics["cli.trace_coverage_frac"] >= 0.95


def test_summary_derives_self_time_per_layer():
    spans = [
        ["cli.import", 0.0, 1.0, -1],
        ["cli.main", 1.0, 10.0, -1],
        ["effects.cross_fit_records", 2.0, 8.0, 1],
        ["nuisance.fit_outcome", 3.0, 7.0, 2],
        ["trees.GradientBoostedRegressor.fit", 3.5, 6.5, 3],
        ["experiments.write_json", 8.0, 9.0, 1],
    ]
    metrics = summarize({"start": 0.0, "end": 10.0, "spans": spans, "counts": {}})
    assert metrics["trees.self_s"] == 3.0
    assert metrics["nuisance.self_s"] == 1.0
    assert metrics["effects.self_s"] == 2.0
    assert metrics["cli.self_s"] == 1.0 + 2.0  # import, plus main minus its children
    assert metrics["cli.write_s"] == 1.0
    assert metrics["cli.trace_coverage_frac"] == pytest.approx(0.8)
    assert {name.split(".")[0] for name in metrics} <= set(LAYERS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name)
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         "optimize-op-8k-linear", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
