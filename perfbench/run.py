"""Benchmark of the stochint command-line program.

One client runs the CLI (``python -m stochint.cli``) as a child process in a
closed loop: each run starts after the previous one ended.  The child uses
OpenBLAS's default thread count.  Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` a run sets up the workload several times, then times CLI
runs for about S seconds (two runs at least) and reports the end-to-end
metrics.  With ``--trace 1`` it runs pairs of one untraced CLI run and one
run under ``perfbench/tracing.py`` and reports the per-layer metrics.  Every
run's outputs are checked: exit code, the expected artifacts, byte-identical
artifacts across the runs of one invocation, and a sanity bound on the
workload's quality metric (``perfbench/checks.json``).  A failed check
counts in ``failed`` and makes the exit code nonzero.  The last line of standard
output is one JSON object with the result; the spans, digests and the
environment block go to ``.perfbench_out/<workload>/seed<N>/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHECKS = BENCH / "checks.json"

from tracing import DETERMINISTIC_COUNTS, summarize

# Set-up repeats until it has run this many times and for this long in all.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
# A run must end within 180 s; children still running at this point are killed.
DEADLINE_S = 170.0
EXCLUDED_ARTIFACTS = ("config.json",)  # echoes the input path


@dataclass
class Child:
    """One finished child process."""

    code: int
    wall_s: float
    rss_mib: float
    cpu_s: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> Child:
    """Run argv to completion; time it and read its rusage from wait4."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return Child(code=-1, wall_s=0.0, rss_mib=0.0, cpu_s=0.0)
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=handle, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall, rss_mib=usage.ru_maxrss / 1024,
                 cpu_s=usage.ru_utime + usage.ru_stime)


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "stochint.cli", *args]


def traced_cli(spans: Path, *args: str) -> list[str]:
    return [sys.executable, str(BENCH / "tracing.py"), str(spans), "--", *args]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)): sha256(p) for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name not in EXCLUDED_ARTIFACTS}


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

OPT_N = 8000
OPT_BOUNDS = (0.0, 10.0)
EST_DELTA = 2.0


@dataclass(frozen=True)
class Workload:
    """CLI arguments, expected artifacts and quality metric of one workload."""

    argv: Callable[[int, Path], list[str]]  # (seed, setup dir) -> CLI args
    artifacts: tuple[str, ...]
    quality: str
    # (seed, setup dir, deadline) -> data the quality metric needs
    reference: Callable[[int, Path, float], dict]
    score: Callable[[Path, dict], float]  # (run dir, reference) -> quality
    setup: Callable[[int, Path], list[str]] | None = None  # CLI args making inputs


def _truth_psi(seed: int, setup_dir: Path, deadline: float) -> dict:
    """psi_true(delta) = mean(q mu1 + (1 - q) mu0) from truth.csv's true propensity."""
    total = 0.0
    rows = read_rows(setup_dir / "truth.csv")
    for row in rows:
        p = float(row["true_propensity"])
        q = EST_DELTA * p / (1.0 + (EST_DELTA - 1.0) * p)
        total += q * float(row["mu1"]) + (1.0 - q) * float(row["mu0"])
    return {"psi_true": total / len(rows)}


def _psi_abs_err(run_dir: Path, reference: dict) -> float:
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    return abs(report["psi_hat"] - reference["psi_true"])


def _ate_abs_err(run_dir: Path, reference: dict) -> float:
    for row in read_rows(run_dir / "tables" / "epsilon_ate.csv"):
        if row["method"] == "sie" and row["split"] == "test":
            return float(row["mean_epsilon"])
    raise ValueError("epsilon_ate.csv has no sie/test row")


def _opt_seed(seed: int) -> int:
    return 100 + seed


def _exact_policy(seed: int, setup_dir: Path, deadline: float) -> dict:
    log = setup_dir.parent / "exact.log"
    child = run_child([sys.executable, str(BENCH / "exact.py"), str(OPT_N),
                       str(_opt_seed(seed)), *map(str, OPT_BOUNDS)], log, deadline)
    if child.code != 0:
        raise RuntimeError(f"exact.py exited with {child.code}; see {log}")
    return json.loads(log.read_text(encoding="utf-8").splitlines()[-1])


def _policy_lift_frac(run_dir: Path, reference: dict) -> float:
    comparison = json.loads((run_dir / "comparison.json").read_text(encoding="utf-8"))
    status_quo = comparison["expected_status_quo"]
    if abs(status_quo - reference["status_quo"]) > 1e-9 * max(1.0, abs(status_quo)):
        raise ValueError("exact.py's records differ from the CLI run's "
                         f"(status quo {reference['status_quo']} vs {status_quo})")
    return (comparison["expected_best"] - status_quo) / (reference["exact"] - status_quo)


WORKLOADS = {
    "estimate-ihdp-10k": Workload(
        setup=lambda seed, d: ["simulate", "--generator", "ihdp", "--n", "10000",
                               "--d", "25", "--seed", str(seed), "--out", str(d)],
        argv=lambda seed, d: ["estimate", "--data", str(d / "dataset.csv"),
                              "--delta", str(EST_DELTA), "--delta-grid", "0:5:0.5"],
        artifacts=("report.json", "influence.csv", "sweep.csv"),
        quality="effects.psi_abs_err",
        reference=_truth_psi,
        score=_psi_abs_err,
    ),
    "optimize-op-8k-linear": Workload(
        argv=lambda seed, d: ["optimize", "--generator", "op", "--n", str(OPT_N),
                              "--seed", str(_opt_seed(seed)),
                              "--ga-seed", str(_opt_seed(seed)),
                              "--outcome-kind", "ridge_linear", "--basis", "raw",
                              "--bounds", ",".join(map(str, OPT_BOUNDS))],
        artifacts=("best_delta.csv", "trace.csv", "comparison.json"),
        quality="genetic.policy_lift_frac",
        reference=_exact_policy,
        score=_policy_lift_frac,
    ),
    "benchmark-ihdp-r10": Workload(
        argv=lambda seed, d: ["benchmark", "--generator", "ihdp", "--n", "747",
                              "--d", "25", "--replications", "10",
                              "--methods", "sie,ols,ipwe", "--seed", str(seed)],
        artifacts=("tables/epsilon_ate.csv", "tables/replications.csv"),
        quality="experiments.ate_abs_err",
        reference=lambda seed, d, deadline: {},
        score=_ate_abs_err,
    ),
}
QUALITY_METRICS = tuple(w.quality for w in WORKLOADS.values())


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

_NUMPY_PROBE = r"""
import ctypes, json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "openblas" in path.lower() and ".so" in path:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
        break
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    probe = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    numpy_info = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {
        "git_revision": revision or "unknown (not a git checkout)",
        "git_dirty": bool(status) if status is not None else None,
        "python": sys.version.split()[0],
        **numpy_info,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------


class Invocation:
    """Runs one workload at one seed and collects checks and samples."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.perf_counter() + DEADLINE_S
        self.dir = OUT / name / f"seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.setup_dir = self.dir / "setup"
        self.setup_dir.mkdir(parents=True)
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []  # (run label, reason)
        self.first_digests: dict[str, str] | None = None
        self.quality: float | None = None
        self.reference: dict = {}
        self.samples: dict[str, list[float]] = {}
        sanity = json.loads(CHECKS.read_text(encoding="utf-8"))["sanity"]
        self.bound = sanity[self.workload.quality]

    def fail(self, label: str, reason: str) -> None:
        self.failures.append((label, reason))

    @property
    def failed(self) -> int:
        """Number of runs or checks with at least one failure."""
        return len({label for label, _ in self.failures})

    def launch(self, label: str, argv: list[str]) -> Child:
        self.attempted += 1
        child = run_child(argv, self.dir / f"{label}.log", self.deadline)
        if child.code != 0:
            self.fail(label, f"exit code {child.code}")
        return child

    # -- setup ------------------------------------------------------------

    def setup(self) -> list[float]:
        """Byte-compile the package, import it cold and make the inputs.

        Returns the wall time of each repetition.  Under --trace 1 one
        repetition runs, with the input-making CLI run traced.
        """
        times: list[float] = []
        setup_digests = None
        while True:
            label = f"setup{len(times)}"
            started = time.perf_counter()
            self.launch(label + "-compile",
                        [sys.executable, "-m", "compileall", "-q", "-f", str(SRC / "stochint")])
            self.launch(label + "-import", [sys.executable, "-c", "import stochint.cli"])
            if self.workload.setup is not None:
                args = self.workload.setup(self.seed, self.setup_dir)
                argv = traced_cli(self.dir / "setup-spans.json", *args) if self.trace \
                    else cli(*args)
                self.launch(label + "-inputs", argv)
                found = digests(self.setup_dir)
                if setup_digests is not None and found != setup_digests:
                    self.fail(label, "setup inputs differ from the first repetition")
                setup_digests = setup_digests or found
            times.append(time.perf_counter() - started)
            if self.trace or self.failures or (
                    len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS):
                break
        if not self.failures:
            self.attempted += 1
            try:
                self.reference = self.workload.reference(self.seed, self.setup_dir,
                                                         self.deadline)
            except (OSError, KeyError, ValueError, RuntimeError) as err:
                self.fail("reference", str(err))
        return times

    # -- measured runs ----------------------------------------------------

    def check(self, label: str, run_dir: Path, child: Child) -> None:
        if child.code != 0:
            return
        missing = [a for a in self.workload.artifacts if not (run_dir / a).is_file()]
        if missing:
            self.fail(label, f"missing artifacts {missing}")
            return
        found = digests(run_dir)
        if self.first_digests is None:
            self.first_digests = found
        elif found != self.first_digests:
            changed = sorted(k for k in found.keys() | self.first_digests.keys()
                             if found.get(k) != self.first_digests.get(k))
            self.fail(label, f"artifacts differ from the first run: {changed}")
        try:
            value = self.workload.score(run_dir, self.reference)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as err:
            self.fail(label, f"quality metric: {err}")
            return
        low, high = self.bound.get("min", float("-inf")), self.bound.get("max", float("inf"))
        if not low <= value <= high:
            self.fail(label, f"{self.workload.quality} = {value} outside [{low}, {high}]")
        if self.quality is None:
            self.quality = value

    def measured(self, index: int, traced: bool) -> tuple[Child, Path]:
        label = f"{'traced' if traced else 'run'}{index}"
        run_dir = self.dir / label
        args = [*self.workload.argv(self.seed, self.setup_dir), "--out", str(run_dir)]
        spans = self.dir / f"{label}-spans.json"
        child = self.launch(label, traced_cli(spans, *args) if traced else cli(*args))
        self.check(label, run_dir, child)
        return child, spans

    def loop(self, step: Callable[[int], float], min_steps: int) -> None:
        """Call step(i) min_steps times, then while the next would end within --seconds."""
        started = time.perf_counter()
        index = 0
        while not self.failures:
            took = step(index)
            index += 1
            if index >= min_steps and time.perf_counter() + took > started + self.seconds:
                return

    def end_to_end(self) -> dict:
        setup_times = self.setup()
        runs: list[Child] = []

        def step(i: int) -> float:
            child, _ = self.measured(i, traced=False)
            runs.append(child)
            return child.wall_s

        # Two runs at least, so the byte-identity check always has a pair to compare.
        self.loop(step, min_steps=2)
        ok = [r for r in runs if r.code == 0]
        walls = [r.wall_s for r in ok] or [0.0]
        self.samples = {"wall_s": walls, "setup_s": setup_times}
        return {
            "wall_s": (statistics.median(walls), "s", len(ok)),
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            "peak_rss_mb": (statistics.median([r.rss_mib for r in ok] or [0.0]),
                            "MiB", len(ok)),
        }

    def per_layer(self) -> dict:
        self.setup()
        plain: list[Child] = []
        traced: list[Child] = []
        summaries: list[dict] = []

        def step(i: int) -> float:
            child, _ = self.measured(i, traced=False)
            plain.append(child)
            child, spans = self.measured(i, traced=True)
            traced.append(child)
            if child.code == 0:
                summaries.append(summarize(json.loads(spans.read_text(encoding="utf-8"))))
            return plain[-1].wall_s + child.wall_s

        self.loop(step, min_steps=1)
        for index, later in enumerate(summaries[1:], start=1):
            changed = [k for k in DETERMINISTIC_COUNTS if later[k] != summaries[0][k]]
            if changed:
                self.fail(f"traced{index}", f"counts differ from traced0: {changed}")
        metrics = {k: statistics.median(s[k] for s in summaries)
                   for k in summaries[0]} if summaries else {}
        setup_spans = self.dir / "setup-spans.json"
        if setup_spans.is_file():
            setup_trace = summarize(json.loads(setup_spans.read_text(encoding="utf-8")))
            metrics["data.write_csv_s"] = setup_trace["data.write_csv_s"]
        plain_wall = statistics.median([c.wall_s for c in plain]) if plain else 0.0
        traced_wall = statistics.median([c.wall_s for c in traced]) if traced else 0.0
        metrics["cli.cpu_s"] = statistics.median([c.cpu_s for c in plain]) if plain else 0.0
        metrics["cli.trace_overhead_frac"] = \
            (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0
        metrics["genetic.improving_gens_frac"] = self.improving_generations()
        for name in QUALITY_METRICS:
            metrics[name] = 0.0
        if self.quality is not None:
            metrics[self.workload.quality] = self.quality
        return {k: (v, _unit(k), len(summaries)) for k, v in sorted(metrics.items())}

    def improving_generations(self) -> float:
        """Share of generations whose best fitness rose over the previous one."""
        path = self.dir / "run0" / "trace.csv"
        if not path.is_file():
            return 0.0
        best = [float(row["best_fitness"]) for row in read_rows(path)]
        if len(best) < 2:
            return 0.0
        return sum(b > a for a, b in zip(best, best[1:])) / (len(best) - 1)


def _unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_frac", "ratio"), ("_err", "abs")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def report(inv: Invocation, metrics: dict, env: dict) -> int:
    checks = json.loads(CHECKS.read_text(encoding="utf-8"))
    reference = checks["reference_sha256"].get(inv.name, {}).get(str(inv.seed), {})
    failed = inv.failed
    fail_frac = failed / inv.attempted if inv.attempted else 1.0
    print(f"workload {inv.name} seed {inv.seed} trace {int(inv.trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<6} n={count}")
    print(f"  {'fail_frac':<34} {fail_frac:>14.6g} {'ratio':<6} n={inv.attempted}")
    if inv.quality is not None:
        print(f"  {inv.workload.quality:<34} {inv.quality:>14.6g} {_unit(inv.workload.quality):<6} "
              f"sanity bound {inv.bound}")
    for artifact, digest in sorted((inv.first_digests or {}).items()):
        expected = reference.get(artifact)
        status = "no reference" if expected is None else \
            ("matches reference" if expected == digest else "differs from reference")
        print(f"  sha256 {digest} {artifact} ({status})")
    for label, reason in inv.failures:
        print(f"  FAILED {label}: {reason}")
    result = {
        "correct": not inv.failures,
        "attempted": inv.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    (inv.dir / "result.json").write_text(json.dumps(
        {**result, "workload": inv.name, "seed": inv.seed, "trace": inv.trace,
         "environment": env, "failures": inv.failures,
         "sha256": inv.first_digests, "quality": inv.quality, "samples": inv.samples},
        indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stochint" / "cli.py").is_file():
        print(f"error: no stochint sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    inv = Invocation(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = inv.per_layer() if inv.trace else inv.end_to_end()
    env["loadavg_end"] = _loadavg()
    return report(inv, metrics, env)


if __name__ == "__main__":
    sys.exit(main())
