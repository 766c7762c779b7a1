"""Benchmark regression harness: ``repro bench``.

Runs a suite of deterministic, seeded benchmarks — the paper's §6
figures and ablations among them — writes schema-versioned
``BENCH_<name>.json`` result files and the paper tables, checks each
figure's shape, and compares the metrics exactly against committed
baselines — exit 1 on a regression or a failed check.  This is
the perf trajectory the ROADMAP's north-star tracks: every commit can
re-run the suite and diff against the last accepted numbers.
"""

from repro.bench.runner import (
    SCHEMA_VERSION,
    Regression,
    compare_payload,
    run_suite,
)
from repro.bench.spec import BenchSpec, Outcome
from repro.bench.suites import SUITES

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "BenchSpec",
    "Outcome",
    "Regression",
    "compare_payload",
    "run_suite",
]
