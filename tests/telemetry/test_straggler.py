"""Tests for the trace-feedback straggler profile (DESIGN.md §15)."""

import json

from repro.cli import main
from repro.telemetry.straggler import StragglerProfile, build_profile


def task(node, duration, start=0.0, job_id=None, attempt=0):
    attrs = {"node": node, "attempt": attempt}
    if job_id is not None:
        attrs["job_id"] = job_id
    return {
        "type": "span",
        "name": "task",
        "start": start,
        "end": start + duration,
        "attrs": attrs,
    }


def job(job_index, start, end, deps=(), job_id=None, replica=0, attempt=0):
    return {
        "type": "span",
        "name": "job",
        "start": start,
        "end": end,
        "attrs": {
            "attempt": attempt,
            "replica": replica,
            "job_index": job_index,
            "deps": list(deps),
            "job_id": job_id or f"j{job_index}",
        },
    }


def balanced_trace():
    """Two fast nodes, one 2.5x-slower node; every node ran 2+ tasks."""
    records = []
    records += [task("node_a", 1.0), task("node_a", 1.0)]
    records += [task("node_b", 1.0), task("node_b", 1.0)]
    records += [task("node_c", 10.0), task("node_c", 10.0)]
    return records


class TestBuildProfile:
    def test_empty_trace_yields_empty_profile(self):
        profile = build_profile([])
        assert profile == StragglerProfile()
        assert profile.stragglers == ()
        assert profile.overall_mean_seconds == 0.0

    def test_slow_node_flagged(self):
        profile = build_profile(balanced_trace())
        # overall mean (2+2+20)/6 = 4.0; node_c's mean 10 > 1.5 * 4.
        assert profile.overall_mean_seconds == 4.0
        assert profile.stragglers == ("node_c",)
        assert profile.node_mean_seconds["node_c"] == 10.0

    def test_min_tasks_filters_one_off_noise(self):
        """A single slow task is noise: the node only becomes a
        straggler once it has run ``min_tasks`` tasks."""
        records = balanced_trace() + [task("node_d", 100.0)]
        profile = build_profile(records)
        assert "node_d" not in profile.stragglers
        trusted = build_profile(records, min_tasks=1)
        assert "node_d" in trusted.stragglers

    def test_stragglers_ordered_slowest_then_lexicographic(self):
        records = [task("node_w", 0.5) for _ in range(4)]
        records += [task("node_x", 10.0), task("node_x", 10.0)]
        records += [task("node_y", 8.0), task("node_y", 8.0)]
        profile = build_profile(records)
        assert profile.stragglers == ("node_x", "node_y")
        tied = build_profile(
            [task("node_w", 0.5) for _ in range(4)]
            + [task("node_y", 10.0), task("node_y", 10.0)]
            + [task("node_x", 10.0), task("node_x", 10.0)]
        )
        assert tied.stragglers == ("node_x", "node_y")

    def test_threshold_is_tunable(self):
        profile = build_profile(balanced_trace(), threshold=3.0)
        # node_c's mean 10 is below 3.0 * 4.0 — no longer a straggler.
        assert profile.stragglers == ()

    def test_critical_path_nodes_from_job_spans(self):
        records = [
            job(0, start=0.0, end=5.0),
            job(1, start=5.0, end=12.0, deps=[0]),
            task("node_a", 1.0, job_id="j0"),
            task("node_a", 1.0, job_id="j0"),
            task("node_b", 1.0, job_id="j1"),
            task("node_b", 1.0, job_id="j1"),
            task("node_c", 1.0, job_id="elsewhere"),
            task("node_c", 1.0, job_id="elsewhere"),
        ]
        profile = build_profile(records)
        assert profile.critical_path_nodes == frozenset(
            {"node_a", "node_b"}
        )

    def test_deterministic(self):
        first = build_profile(balanced_trace())
        second = build_profile(balanced_trace())
        assert first == second

    def test_render_mentions_stragglers(self):
        text = build_profile(balanced_trace()).render()
        assert "node_c" in text
        assert "overall mean task time" in text


class TestLoadProfile:
    def test_load_from_jsonl(self, tmp_path, capsys):
        """``repro run --schedule-from-trace`` reads a JSONL trace file
        into the profile it schedules with."""
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as handle:
            for record in balanced_trace():
                handle.write(json.dumps(record) + "\n")
        (tmp_path / "job.pig").write_text(
            "A = LOAD 'in' AS (k:int, v:int);\nSTORE A INTO 'out';\n"
        )
        (tmp_path / "in.csv").write_text("1,2\n")
        assert main([
            "run", str(tmp_path / "job.pig"), "--input", f"in={tmp_path / 'in.csv'}",
            "--schedule-from-trace", str(path),
        ]) == 0
        assert f"stragglers: node_c (from {path})" in capsys.readouterr().out
