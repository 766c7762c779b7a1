"""Benchmark runner: execute suites, persist results, gate on baselines.

Result files are ``BENCH_<name>.json`` in ``benchmarks/results/`` —
schema-versioned, sorted-key JSON carrying the metrics, the seed, the
variant (full/smoke) and the git sha, so the perf trajectory accumulates
one machine-readable point per commit.  Baselines are the same payload
minus the git sha, committed under ``benchmarks/baselines/`` (smoke
variants in a ``smoke/`` subdirectory).

Comparison policy: each baseline metric may carry a relative
``tolerance`` (fraction; 0 or absent = exact, which is the right default
for a deterministic simulator).  A run regresses when any metric
deviates beyond its tolerance in *either* direction — upward drift on a
latency metric is a perf regression, downward drift on a fidelity metric
(jobs completed, suspects isolated) is a correctness smell, and silent
movement of supposedly-deterministic numbers means nondeterminism crept
in.  Missing metrics, result files and baselines fail too.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass

from repro.bench.suites import SUITES, BenchSpec, spec_by_name
from repro.common.atomic_io import write_json

SCHEMA_VERSION = "repro.bench/v1"

DEFAULT_RESULTS_DIR = os.path.join("benchmarks", "results")
DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")


@dataclass(frozen=True)
class Regression:
    benchmark: str
    metric: str
    baseline: float | None
    current: float | None
    tolerance: float

    def render(self) -> str:
        if self.baseline is None:
            return f"{self.benchmark}.{self.metric}: missing from baseline run"
        if self.current is None:
            return f"{self.benchmark}.{self.metric}: missing from this run"
        return (
            f"{self.benchmark}.{self.metric}: {self.baseline:g} -> "
            f"{self.current:g} (tolerance {self.tolerance:g})"
        )


def git_sha() -> str:
    """Short commit sha of the working tree, or 'unknown' outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def build_payload(
    spec: BenchSpec, smoke: bool, sha: str | None = None
) -> dict:
    """Run one benchmark and wrap its metrics in the result schema."""
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": spec.name,
        "variant": "smoke" if smoke else "full",
        "seed": spec.seed,
        "git_sha": sha if sha is not None else git_sha(),
        "metrics": spec.run(smoke),
    }


def write_payload(payload: dict, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{payload['benchmark']}.json")
    # Atomic replace: a crashed or concurrent bench run never leaves a
    # torn result file for the comparison gate to choke on.
    write_json(path, payload)
    return path


def baseline_path(name: str, baseline_dir: str, smoke: bool) -> str:
    directory = os.path.join(baseline_dir, "smoke") if smoke else baseline_dir
    return os.path.join(directory, f"BENCH_{name}.json")


def _as_baseline(payload: dict) -> dict:
    """A result payload minus the commit-specific field."""
    baseline = dict(payload)
    baseline.pop("git_sha", None)
    return baseline


def compare_payload(
    payload: dict, baseline: dict, default_tolerance: float = 0.0
) -> list[Regression]:
    """Per-metric comparison; any deviation beyond tolerance regresses."""
    current = {m["name"]: m for m in payload.get("metrics", [])}
    regressions: list[Regression] = []
    for row in baseline.get("metrics", []):
        name = row["name"]
        tolerance = float(row.get("tolerance", default_tolerance))
        if name not in current:
            regressions.append(
                Regression(payload["benchmark"], name, row["value"], None, tolerance)
            )
            continue
        base_value = float(row["value"])
        cur_value = float(current[name]["value"])
        limit = tolerance * max(abs(base_value), 1e-12)
        if abs(cur_value - base_value) > limit:
            regressions.append(
                Regression(
                    payload["benchmark"], name, base_value, cur_value, tolerance
                )
            )
    for name in current:
        if not any(row["name"] == name for row in baseline.get("metrics", [])):
            regressions.append(
                Regression(
                    payload["benchmark"],
                    name,
                    None,
                    float(current[name]["value"]),
                    0.0,
                )
            )
    return regressions


def run_suite(
    names: list[str] | None = None,
    smoke: bool = False,
    results_dir: str = DEFAULT_RESULTS_DIR,
    baseline_dir: str = DEFAULT_BASELINE_DIR,
    update_baselines: bool = False,
    default_tolerance: float = 0.0,
    log=print,
    _suites: tuple[BenchSpec, ...] | None = None,
) -> int:
    """Run benchmarks, write results, compare; returns the exit code.

    ``_suites`` overrides the registered suite — test seam only.
    """
    available = SUITES if _suites is None else _suites
    specs = (
        [spec_by_name(name) for name in names] if names else list(available)
    )
    sha = git_sha()
    all_regressions: list[Regression] = []
    missing_baselines: list[str] = []
    for spec in specs:
        payload = build_payload(spec, smoke, sha=sha)
        result_path = write_payload(payload, results_dir)
        log(
            f"bench {spec.name} [{payload['variant']}]: "
            f"{len(payload['metrics'])} metrics -> {result_path}"
        )
        base_path = baseline_path(spec.name, baseline_dir, smoke)
        if update_baselines:
            os.makedirs(os.path.dirname(base_path), exist_ok=True)
            write_json(base_path, _as_baseline(payload))
            log(f"  baseline updated: {base_path}")
            continue
        if not os.path.exists(base_path):
            missing_baselines.append(base_path)
            log(f"  no baseline at {base_path} (run --update-baselines)")
            continue
        with open(base_path) as handle:
            baseline = json.load(handle)
        regressions = compare_payload(
            payload, baseline, default_tolerance=default_tolerance
        )
        if regressions:
            for regression in regressions:
                log(f"  REGRESSION {regression.render()}")
            all_regressions.extend(regressions)
        else:
            log(f"  ok vs {base_path}")
    if all_regressions:
        log(
            f"{len(all_regressions)} metric regression(s) across "
            f"{len({r.benchmark for r in all_regressions})} benchmark(s)"
        )
    if missing_baselines:
        log(f"{len(missing_baselines)} benchmark(s) without a baseline")
    return 1 if all_regressions or missing_baselines else 0
