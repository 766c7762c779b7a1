"""Tests for the benchmark regression harness (`repro bench`)."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.runner import (
    SCHEMA_VERSION,
    build_payload,
    compare_payload,
    run_suite,
    write_payload,
)
from repro.bench.suites import SUITES, BenchSpec, Outcome, metric, spec_by_name

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def quick_spec(values=(1.0, 2.0), name="toy", checks=None):
    def run(smoke):
        return Outcome(
            [metric("alpha", values[0], "units"), metric("beta", values[1], "units")],
            checks=checks or {},
        )

    return BenchSpec(name=name, description="toy", seed=7, run=run)


def payload_of(spec, smoke, sha):
    return build_payload(spec, smoke, spec.run(smoke).metrics, sha=sha)


class TestPayload:
    def test_schema_fields(self):
        payload = payload_of(quick_spec(), smoke=True, sha="abc123")
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["benchmark"] == "toy"
        assert payload["variant"] == "smoke"
        assert payload["seed"] == 7
        assert payload["git_sha"] == "abc123"
        assert [m["name"] for m in payload["metrics"]] == ["alpha", "beta"]

    def test_write_is_sorted_and_stable(self, tmp_path):
        payload = payload_of(quick_spec(), smoke=False, sha="abc")
        path_a = write_payload(payload, str(tmp_path / "one"))
        path_b = write_payload(payload, str(tmp_path / "two"))
        assert open(path_a, "rb").read() == open(path_b, "rb").read()
        assert path_a.endswith("BENCH_toy.json")
        loaded = json.load(open(path_a))
        assert loaded == payload


class TestCompare:
    BASE = {
        "benchmark": "toy",
        "metrics": [
            {"name": "alpha", "value": 10.0, "units": "u"},
            {"name": "beta", "value": 100.0, "units": "u"},
        ],
    }

    def payload(self, alpha=10.0, beta=100.0):
        return {
            "benchmark": "toy",
            "metrics": [
                {"name": "alpha", "value": alpha, "units": "u"},
                {"name": "beta", "value": beta, "units": "u"},
            ],
        }

    def test_exact_match_passes(self):
        assert compare_payload(self.payload(), self.BASE) == []

    def test_zero_tolerance_metric_regresses_on_any_drift(self):
        (regression,) = compare_payload(self.payload(alpha=10.0001), self.BASE)
        assert regression.metric == "alpha"
        assert "alpha" in regression.render()

    def test_missing_metric_in_run_regresses(self):
        payload = {"benchmark": "toy", "metrics": self.payload()["metrics"][:1]}
        (regression,) = compare_payload(payload, self.BASE)
        assert regression.metric == "beta"
        assert regression.current is None
        assert "missing from this run" in regression.render()

    def test_new_unbaselined_metric_regresses(self):
        payload = self.payload()
        payload["metrics"].append({"name": "gamma", "value": 1.0, "units": "u"})
        (regression,) = compare_payload(payload, self.BASE)
        assert regression.metric == "gamma"
        assert regression.baseline is None


class TestRunSuite:
    def run(self, tmp_path, spec, update=False):
        logs = []
        code = run_suite(
            names=None,
            smoke=True,
            results_dir=str(tmp_path / "results"),
            baseline_dir=str(tmp_path / "baselines"),
            update_baselines=update,
            log=logs.append,
            _suites=(spec,),
        )
        return code, logs

    def test_missing_baseline_fails(self, tmp_path):
        code, logs = self.run(tmp_path, quick_spec())
        assert code == 1
        assert any("no baseline" in line for line in logs)
        assert any("without a baseline" in line for line in logs)

    def test_update_then_compare_passes(self, tmp_path):
        assert self.run(tmp_path, quick_spec(), update=True)[0] == 0
        code, logs = self.run(tmp_path, quick_spec())
        assert code == 0
        assert any("ok vs" in line for line in logs)

    def test_regression_exits_one(self, tmp_path):
        assert self.run(tmp_path, quick_spec(), update=True)[0] == 0
        code, logs = self.run(tmp_path, quick_spec(values=(1.5, 2.0)))
        assert code == 1
        assert any("REGRESSION" in line for line in logs)

    def test_baseline_omits_git_sha(self, tmp_path):
        self.run(tmp_path, quick_spec(), update=True)
        baseline = json.load(
            open(tmp_path / "baselines" / "smoke" / "BENCH_toy.json")
        )
        assert "git_sha" not in baseline
        assert baseline["schema"] == SCHEMA_VERSION

    def test_failed_check_exits_one_and_pins_no_baseline(self, tmp_path):
        spec = quick_spec(checks={"holds": True, "shape_broken": False})
        code, logs = self.run(tmp_path, spec, update=True)
        assert code == 1
        assert any("CHECK FAILED toy.shape_broken" in line for line in logs)
        assert not any("toy.holds" in line for line in logs)
        assert not (tmp_path / "baselines" / "smoke" / "BENCH_toy.json").exists()

    def test_result_files_byte_identical_across_runs(self, tmp_path):
        self.run(tmp_path, quick_spec(), update=True)
        self.run(tmp_path, quick_spec())
        first = open(tmp_path / "results" / "BENCH_toy.json", "rb").read()
        self.run(tmp_path, quick_spec())
        second = open(tmp_path / "results" / "BENCH_toy.json", "rb").read()
        assert first == second


class TestRealSuites:
    def test_spec_by_name_round_trips(self):
        assert spec_by_name("fig12").name == "fig12"
        with pytest.raises(KeyError):
            spec_by_name("nope")

    def test_every_suite_has_full_and_smoke_baselines(self):
        for spec in SUITES:
            assert (BASELINES / f"BENCH_{spec.name}.json").is_file(), spec.name
            assert (BASELINES / "smoke" / f"BENCH_{spec.name}.json").is_file(), spec.name

    def test_fig12_smoke_is_deterministic_and_trace_backed(self):
        first = spec_by_name("fig12").run(True).metrics
        second = spec_by_name("fig12").run(True).metrics
        assert first == second
        names = [m["name"] for m in first]
        assert "saturation_time" in names
        assert "final_suspects" in names

    def test_fig13_smoke_is_deterministic(self):
        spec = spec_by_name("fig13")
        first = spec.run(True).metrics
        assert first == spec.run(True).metrics
        by_name = {m["name"]: m["value"] for m in first}
        assert by_name["runs"] == 2
        assert by_name["peak_suspects_max"] >= by_name["peak_suspects_mean"]

    def test_payload_survives_deepcopy_comparison(self):
        payload = payload_of(quick_spec(), smoke=True, sha="x")
        assert compare_payload(copy.deepcopy(payload), payload) == []
