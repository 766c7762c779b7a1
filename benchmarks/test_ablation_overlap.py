"""Ablation — overlap-aware placement vs spreading (fault isolation).

The paper's scheduler deliberately overlaps job clusters on nodes
("cause as many intersections as there are resource units", §4.2) so
the Fig. 7 analyzer can intersect faulty clusters.  This ablation runs
the isolation simulator with the paper's policy ("overlap": busiest
nodes first) against a load-spreading baseline ("spread": idle nodes
first) and compares how many jobs it takes to shrink the suspect set.

Shape to hold: overlap placement reaches small suspect sets in no more
jobs than spreading — intersections are what narrow suspicion.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.isolation.simulator import IsolationSimulator
from repro.reporting.tables import Table

PROBABILITY = 0.5
TRIALS = 6
MAX_TIME = 300
TABLE = pathlib.Path(__file__).parent / "results" / "ablation_overlap.txt"


def run_strategy(strategy, seed):
    simulator = IsolationSimulator(
        f=1,
        commission_probability=PROBABILITY,
        overlap_strategy=strategy,
        seed=seed,
    )
    stats = simulator.run(max_time=MAX_TIME)
    suspect_sizes = [p.suspects for p in stats.timeline if p.suspects > 0]
    return {
        "saturation_jobs": stats.jobs_at_saturation or stats.jobs_completed,
        "final_suspects": len(stats.final_suspects),
        "exact": stats.exact_isolation,
        "peak_suspects": max(suspect_sizes, default=0),
    }


@pytest.fixture(scope="module")
def results():
    rows = {}
    for strategy in ("overlap", "spread"):
        trials = [run_strategy(strategy, seed=100 + 17 * t) for t in range(TRIALS)]
        rows[strategy] = {
            "saturation_jobs": sum(t["saturation_jobs"] for t in trials) / TRIALS,
            "final_suspects": sum(t["final_suspects"] for t in trials) / TRIALS,
            "exact_rate": sum(t["exact"] for t in trials) / TRIALS,
            "peak_suspects": sum(t["peak_suspects"] for t in trials) / TRIALS,
        }
    return rows


def test_ablation_overlap_benchmark(results):
    table = Table(
        "Ablation — overlap-aware vs spreading placement "
        f"(f=1, p={PROBABILITY}, {TRIALS} trials)",
        ["strategy", "jobs to |D|=f", "avg final suspects", "exact-isolation rate"],
    )
    for strategy, row in results.items():
        table.add_row(
            strategy,
            row["saturation_jobs"],
            row["final_suspects"],
            row["exact_rate"],
        )
    TABLE.write_text("\n" + table.render() + "\n")

    overlap, spread = results["overlap"], results["spread"]
    # Both isolate, but overlapping never does worse on isolation speed
    # and typically pins the exact fault at least as often.
    assert overlap["saturation_jobs"] <= spread["saturation_jobs"] * 1.5
    assert overlap["exact_rate"] >= spread["exact_rate"] - 0.34
