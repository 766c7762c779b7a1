"""Fast smoke + schema test of the host-clock benchmark.

Not part of tier-1 (``testpaths = ["tests"]``); run it with

    python -m pytest benchmarks/perf/tests -q
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

PERF = pathlib.Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
RUN = [sys.executable, str(PERF / "run.py")]


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_check_mode_passes():
    """Every workload at 1/20 size: no failed operation, tracing leaves
    no wrapper installed, and the metric names printed are exactly those
    BENCHMARK.json declares."""
    done = subprocess.run(
        RUN + ["--check"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("check ok")


def test_run_prints_the_declared_metrics_with_units(spec):
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        done = subprocess.run(
            RUN + ["--workload", "follower_plain", "--seconds", "1",
                   "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == {entry["name"]: entry["unit"] for entry in declared}


def test_spec_declares_the_four_workloads(spec):
    assert [entry["name"] for entry in spec["workloads"]] == [
        "follower_assured", "follower_plain", "twohop_hardened", "serve_mixed",
    ]
    assert spec["paths"] == ["benchmarks/perf"]
    assert "setup_s" in {entry["name"] for entry in spec["end_to_end"]}


def test_calibration_kernel_is_independent_of_the_program():
    sys.path.insert(0, str(PERF))
    try:
        import run

        assert "repro" not in run.calib_imports()
    finally:
        sys.path.remove(str(PERF))


def test_self_times_subtract_direct_children_only():
    """root 0-10 > a 1-7 > b 2-4, root > a 8-9: self times are root 3,
    a 5, b 2, and they add up to the root span."""
    sys.path.insert(0, str(PERF))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERF))
    recorder = tracing.Recorder()
    recorder.spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 7.0, 0],
        ["b", 2.0, 4.0, 1],
        ["a", 8.0, 9.0, 0],
    ]
    assert recorder.self_times() == {"root": 3.0, "a": 5.0, "b": 2.0}
    assert sum(recorder.self_times().values()) == recorder.root_seconds()
    assert recorder.calls("a") == 2


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for source in PERF.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "follower_plain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
