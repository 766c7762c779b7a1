"""Tests for the JSONL and Chrome trace exporters."""

import json

from repro.simulation.events import EventLoop
from repro.telemetry import Telemetry
from repro.telemetry.export import (
    read_jsonl_lenient,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)


def recorded_telemetry():
    loop = EventLoop()
    telemetry = Telemetry.recording(clock=lambda: loop.now)
    tracer = telemetry.tracer
    tracer.emit("task", start=0.0, end=2.0, node="node_0001", kind="map")
    tracer.emit("verify", start=1.0, end=3.0, sid="s0")
    tracer.event("audit.commit", time=3.0, subject="s0")
    telemetry.metrics.counter("tasks_completed", kind="map").inc()
    return telemetry


class TestJsonl:
    def test_round_trip(self, tmp_path):
        telemetry = recorded_telemetry()
        path = tmp_path / "trace.jsonl"
        count = telemetry.write_jsonl(str(path))
        records = read_jsonl_lenient(str(path))[0]
        assert len(records) == count == 4
        assert records == telemetry.export_records()

    def test_one_sorted_json_object_per_line(self):
        text = to_jsonl([{"b": 1, "a": 2}, {"x": 3}])
        lines = text.splitlines()
        assert lines[0] == '{"a": 2, "b": 1}'
        assert json.loads(lines[1]) == {"x": 3}

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_jsonl_lenient(str(path))[0] == [{"a": 1}, {"b": 2}]

    def test_write_jsonl_returns_record_count(self, tmp_path):
        path = tmp_path / "out.jsonl"
        assert write_jsonl([{"a": 1}, {"b": 2}], str(path)) == 2


class TestChromeTrace:
    def test_spans_become_complete_events_in_microseconds(self):
        document = to_chrome_trace(recorded_telemetry().export_records())
        (task,) = [e for e in document["traceEvents"] if e.get("name") == "task"]
        assert task["ph"] == "X"
        assert task["ts"] == 0.0
        assert task["dur"] == 2.0 * 1e6
        assert task["args"]["kind"] == "map"

    def test_tracks_derive_from_node_attrs(self):
        document = to_chrome_trace(recorded_telemetry().export_records())
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"node_0001", "control-tier"}

    def test_open_spans_are_skipped(self):
        records = [
            {"type": "span", "id": 1, "parent": None, "name": "open",
             "start": 0.0, "end": None, "attrs": {}},
        ]
        assert to_chrome_trace(records)["traceEvents"] == []

    def test_events_and_counters_export(self):
        document = to_chrome_trace(recorded_telemetry().export_records())
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"X", "i", "C", "M"} <= phases

    def test_written_file_is_loadable(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        count = write_chrome_trace(recorded_telemetry().export_records(), str(path))
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        assert document["displayTimeUnit"] == "ms"
