"""Telemetry subsystem: sim-time tracing, metrics, exporters.

Observability for the reproduction's control and computation tiers.  The
paper's whole evaluation (§6) is about *where time goes* — verification
off the critical path, recomputation savings, isolation speed — and
this package is the layer that attributes it: a span tracer keyed to
the deterministic event-loop clock, a metrics registry, and trace
exporters (JSONL + Chrome ``trace_event``).

Usage::

    from repro.telemetry import Telemetry

    telemetry = Telemetry.recording()
    controller = ClusterBFTController(config, telemetry=telemetry)
    controller.run_assured(script)
    telemetry.write_jsonl("run.jsonl")
    telemetry.write_chrome_trace("run.chrome.json")

Everything defaults to :data:`DISABLED` — a no-op facade whose tracer
and metrics cost one attribute load per instrumentation site and which
guarantees the simulation is bit-identical with telemetry on or off
(the tracer never schedules loop events and never draws randomness).
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.export import (
    JsonlStreamSink,
    read_jsonl_lenient,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import (
    NULL_TRACER,
    InMemorySink,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Telemetry",
    "DISABLED",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "InMemorySink",
    "JsonlStreamSink",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "read_jsonl_lenient",
    "to_jsonl",
    "to_chrome_trace",
    "write_jsonl",
    "write_chrome_trace",
]


class _NullMetric:
    __slots__ = ()

    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class _NullMetrics:
    """Registry stand-in for disabled telemetry: accepts, records nothing."""

    def counter(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, buckets=None, **labels) -> _NullMetric:
        return _NULL_METRIC

    def counter_value(self, name: str, **labels) -> float:
        return 0.0

    def snapshot(self) -> list[dict]:
        return []


class Telemetry:
    """Facade bundling one tracer, one metrics registry, and sinks.

    ``enabled`` is the flag hot paths check before building attribute
    dicts.  The singleton :data:`DISABLED` (``Telemetry.disabled()``) is
    the default everywhere a component accepts a ``telemetry=`` argument.
    """

    enabled = True

    #: Causal message tracing: when True, `SimNetwork` and the digest
    #: path emit paired send/recv events and parent in-handler records
    #: to the delivery — see :mod:`repro.telemetry.causal`.  Purely an
    #: extra-records switch; it never perturbs the simulation.
    causal = False

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        wall_clock: bool = False,
        stream_path: str | None = None,
        causal: bool = False,
    ) -> None:
        self.causal = bool(causal)
        self.sink = InMemorySink()
        self.stream_sink: JsonlStreamSink | None = None
        sinks: list = [self.sink]
        if stream_path is not None:
            # Streaming mode is memory-bounded: records go to disk only
            # (the in-memory sink stays attached-but-empty so consumers
            # of ``.sink`` keep working).
            self.stream_sink = JsonlStreamSink(stream_path)
            sinks = [self.stream_sink]
        self.tracer = Tracer(clock or (lambda: 0.0), sinks, wall_clock=wall_clock)
        self.metrics = MetricsRegistry()
        # Gauge mutations become timestamped `sample` records in the
        # trace stream — the registry snapshot alone only keeps finals.
        self.metrics.bind_sampler(self.tracer.sample)

    @classmethod
    def recording(
        cls,
        clock: Callable[[], float] | None = None,
        wall_clock: bool = False,
        causal: bool = False,
    ) -> "Telemetry":
        """An enabled telemetry pipeline backed by an in-memory sink."""
        return cls(clock=clock, wall_clock=wall_clock, causal=causal)

    @classmethod
    def streaming(
        cls,
        path: str,
        clock: Callable[[], float] | None = None,
        wall_clock: bool = False,
        causal: bool = False,
    ) -> "Telemetry":
        """An enabled pipeline that writes records through to ``path``
        (JSONL) as they are emitted; call :meth:`finalize` when done."""
        return cls(clock=clock, stream_path=path, wall_clock=wall_clock, causal=causal)

    def finalize(self) -> int | None:
        """Append the trailing metrics snapshot to the stream sink and
        close it (flush + fsync); returns total records written (None
        when not streaming).  Idempotent: a second call closes nothing
        and appends no duplicate snapshot.  The resulting file matches
        what :meth:`write_jsonl` would have produced from an in-memory
        run."""
        if self.stream_sink is None:
            return None
        if self.stream_sink.closed:
            return self.stream_sink.records_written
        now = self.tracer.clock()
        for row in self.metrics.snapshot():
            record = {"type": "metric", "metric_kind": row.pop("kind"), "ts": now}
            record.update(row)
            self.stream_sink.handle(record)
        return self.stream_sink.close()

    @staticmethod
    def disabled() -> "Telemetry":
        return DISABLED

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the sim-time clock (done by whoever owns the loop)."""
        self.tracer.clock = clock

    def observe_loop(self, loop) -> None:
        """Count processed loop events per label family (``hb:*`` → ``hb``)."""
        counters = self.metrics

        def on_event(label: str) -> None:
            family = label.split(":", 1)[0] if label else "unlabelled"
            counters.counter("sim_events_processed", family=family).inc()

        loop.on_event = on_event

    # -- export ---------------------------------------------------------

    def export_records(self) -> list[dict]:
        """Trace records plus a trailing metrics snapshot."""
        now = self.tracer.clock()
        records = list(self.sink.records)
        for row in self.metrics.snapshot():
            record = {"type": "metric", "metric_kind": row.pop("kind"), "ts": now}
            record.update(row)
            records.append(record)
        return records

    def write_jsonl(self, path: str) -> int:
        return write_jsonl(self.export_records(), path)

    def write_chrome_trace(self, path: str) -> int:
        return write_chrome_trace(self.export_records(), path)


class _DisabledTelemetry(Telemetry):
    """Shared no-op facade; safe to pass everywhere, records nothing."""

    enabled = False
    causal = False

    def __init__(self) -> None:
        self.sink = InMemorySink()  # stays empty: NULL_TRACER never writes
        self.stream_sink = None
        self.tracer = NULL_TRACER
        self.metrics = _NullMetrics()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def observe_loop(self, loop) -> None:
        pass

    def export_records(self) -> list[dict]:
        return []


DISABLED = _DisabledTelemetry()
