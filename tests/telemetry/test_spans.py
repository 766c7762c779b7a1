"""Tests for the sim-time span tracer."""

from repro.simulation.events import EventLoop
from repro.telemetry.spans import NULL_TRACER, InMemorySink, Span, Tracer


def make_tracer(loop=None):
    loop = loop or EventLoop()
    sink = InMemorySink()
    return loop, sink, Tracer(lambda: loop.now, [sink])


class TestSpanRecording:
    def test_span_times_come_from_the_clock(self):
        loop, sink, tracer = make_tracer()
        span = tracer.begin("work")
        loop.schedule(2.5, lambda: span.end())
        loop.run_until_idle()
        (record,) = sink.spans("work")
        assert record["start"] == 0.0
        assert record["end"] == 2.5

    def test_explicit_start_and_end_override_clock(self):
        _, sink, tracer = make_tracer()
        span = tracer.begin("task", start=10.0)
        span.end(end=13.5)
        (record,) = sink.spans("task")
        assert (record["start"], record["end"]) == (10.0, 13.5)

    def test_emit_records_completed_span(self):
        _, sink, tracer = make_tracer()
        tracer.emit("shuffle", start=1.0, end=2.0, bytes=4096)
        (record,) = sink.spans("shuffle")
        assert record["end"] - record["start"] == 1.0
        assert record["attrs"]["bytes"] == 4096

    def test_double_end_records_once(self):
        _, sink, tracer = make_tracer()
        span = tracer.begin("once")
        span.end(end=1.0)
        span.end(end=99.0)
        (record,) = sink.spans("once")
        assert record["end"] == 1.0

    def test_set_and_end_attrs_merge(self):
        _, sink, tracer = make_tracer()
        span = tracer.begin("job", job_id="j0")
        span.set(replica=2)
        span.end(cancelled=False)
        (record,) = sink.spans("job")
        assert record["attrs"] == {"job_id": "j0", "replica": 2, "cancelled": False}

    def test_ids_are_unique_and_increasing(self):
        _, sink, tracer = make_tracer()
        tracer.emit("a", start=0.0, end=1.0)
        tracer.emit("b", start=0.0, end=1.0)
        ids = [r["id"] for r in sink.records]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)


class TestParentage:
    def test_context_manager_nesting(self):
        _, sink, tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                tracer.event("tick")
        inner = sink.spans("inner")[0]
        tick = sink.events("tick")[0]
        assert inner["parent"] == outer.span_id
        assert tick["parent"] == sink.spans("inner")[0]["id"]
        assert sink.spans("outer")[0]["parent"] is None

    def test_explicit_parent_beats_stack(self):
        _, sink, tracer = make_tracer()
        anchor = tracer.begin("anchor")
        with tracer.span("ambient"):
            tracer.emit("child", start=0.0, end=1.0, parent=anchor)
        assert sink.spans("child")[0]["parent"] == anchor.span_id

    def test_parent_accepts_raw_id(self):
        _, sink, tracer = make_tracer()
        tracer.emit("child", start=0.0, end=1.0, parent=42)
        assert sink.spans("child")[0]["parent"] == 42


class TestEvents:
    def test_event_timestamp_defaults_to_clock(self):
        loop, sink, tracer = make_tracer()
        loop.schedule(3.0, lambda: tracer.event("mark", node="n1"))
        loop.run_until_idle()
        (record,) = sink.events("mark")
        assert record["ts"] == 3.0
        assert record["attrs"] == {"node": "n1"}

    def test_explicit_event_time(self):
        _, sink, tracer = make_tracer()
        tracer.event("mark", time=7.0)
        assert sink.events("mark")[0]["ts"] == 7.0


class TestSinks:
    def test_records_arrive_in_emission_order(self):
        _, sink, tracer = make_tracer()
        tracer.event("first")
        tracer.emit("second", start=0.0, end=0.0)
        tracer.event("third")
        assert [r["name"] for r in sink.records] == ["first", "second", "third"]

    def test_wall_clock_is_opt_in(self):
        _, sink, tracer = make_tracer()
        tracer.event("plain")
        assert "host_time" not in sink.records[0]
        wall_sink = InMemorySink()
        wall = Tracer(lambda: 0.0, [wall_sink], wall_clock=True)
        wall.event("stamped")
        assert "host_time" in wall_sink.records[0]


class TestNullTracer:
    def test_everything_is_a_noop(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.begin("x", a=1)
        span.set(b=2)
        span.end(end=1.0, c=3)
        with NULL_TRACER.span("y"):
            NULL_TRACER.event("z")
        NULL_TRACER.emit("w", start=0.0, end=1.0)

    def test_null_span_is_shared_and_inert(self):
        assert NULL_TRACER.begin("a") is NULL_TRACER.begin("b")
        assert not isinstance(NULL_TRACER.begin("a"), Span)
