"""Tests for the streaming JSONL trace sink (write-through to disk)."""

from repro.telemetry import JsonlStreamSink, Telemetry, read_jsonl_lenient


class TestJsonlStreamSink:
    def test_records_land_on_disk_as_emitted(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlStreamSink(path)
        sink.handle({"type": "event", "name": "first", "ts": 1.0})
        sink.flush()
        # The prefix is on disk before close — a crashed run keeps it.
        assert len(read_jsonl_lenient(path)[0]) == 1
        sink.handle({"type": "event", "name": "second", "ts": 2.0})
        assert sink.close() == 2
        assert [r["name"] for r in read_jsonl_lenient(path)[0]] == ["first", "second"]

    def test_closed_sink_drops_stragglers(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlStreamSink(path)
        sink.close()
        sink.handle({"type": "event", "name": "late", "ts": 9.0})
        assert sink.records_written == 0
        assert read_jsonl_lenient(path)[0] == []

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlStreamSink(str(tmp_path / "trace.jsonl"))
        sink.handle({"type": "event", "name": "x", "ts": 0.0})
        assert sink.close() == 1
        assert sink.close() == 1


def emit_sample(telemetry):
    tracer = telemetry.tracer
    with tracer.span("task", node="n1"):
        tracer.event("speculate", node="n1")
    telemetry.metrics.counter("things", kind="a").inc(3)


class TestStreamingTelemetry:
    def test_streamed_file_matches_in_memory_export(self, tmp_path):
        """Byte-level contract: a streamed trace holds exactly the
        records an in-memory run would have exported."""
        path = str(tmp_path / "trace.jsonl")
        streaming = Telemetry.streaming(path)
        emit_sample(streaming)
        written = streaming.finalize()

        recording = Telemetry.recording()
        emit_sample(recording)
        expected = recording.export_records()

        got = read_jsonl_lenient(path)[0]
        assert written == len(expected)
        assert got == expected

    def test_streaming_keeps_memory_sink_empty(self, tmp_path):
        telemetry = Telemetry.streaming(str(tmp_path / "trace.jsonl"))
        emit_sample(telemetry)
        assert telemetry.sink.records == []
        telemetry.finalize()

    def test_finalize_appends_metrics_snapshot(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry = Telemetry.streaming(path)
        telemetry.metrics.counter("widgets").inc()
        telemetry.finalize()
        metrics = [r for r in read_jsonl_lenient(path)[0] if r["type"] == "metric"]
        assert metrics and metrics[0]["name"] == "widgets"
        assert metrics[0]["metric_kind"] == "counter"

    def test_finalize_without_stream_is_noop(self):
        assert Telemetry.recording().finalize() is None

    def test_double_finalize_appends_no_duplicate_snapshot(self, tmp_path):
        """finalize() is idempotent: the second call closes nothing,
        appends no second metrics snapshot, and reports the same count."""
        path = str(tmp_path / "trace.jsonl")
        telemetry = Telemetry.streaming(path)
        telemetry.metrics.counter("widgets").inc()
        first = telemetry.finalize()
        second = telemetry.finalize()
        assert first == second
        metrics = [r for r in read_jsonl_lenient(path)[0] if r["type"] == "metric"]
        assert len(metrics) == 1
