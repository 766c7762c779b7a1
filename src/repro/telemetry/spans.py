"""Sim-time span tracing.

The tracer is keyed to the deterministic :class:`~repro.simulation.events.EventLoop`
clock: every span/event timestamp is *simulated* seconds, so two runs
with the same seed produce byte-identical traces.  Wall-clock capture is
an opt-in extra field (useful to find slow spots in the simulator
itself) and never participates in determinism-sensitive output.

Two styles of instrumentation coexist because the codebase mixes
straight-line code with event-driven callbacks:

* ``with tracer.span("verify", sid=sid):`` — context-manager nesting for
  synchronous sections; parentage follows the active-span stack.
* ``span = tracer.begin(...)`` / ``span.end(...)`` — explicit lifetime
  for spans that open in one event-loop callback and close in another
  (a job replica spans many heartbeats).
* ``tracer.emit("task", start=t0, end=t1, ...)`` — a completed span
  whose duration was *simulated* (the discrete-event engine decides a
  task's duration up front and schedules its completion); there is no
  live code region to wrap.

The default tracer everywhere is :data:`NULL_TRACER`, whose every method
is a no-op and whose ``enabled`` flag lets hot paths skip building
attribute dictionaries entirely — tracing off must cost nothing and,
critically, must not perturb the simulation (the tracer never schedules
events and never draws randomness).
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Protocol


class TelemetrySink(Protocol):
    """Receives telemetry records (plain dicts) in emission order."""

    def handle(self, record: dict) -> None: ...


class Span:
    """One open span; close it with :meth:`end`."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "start", "attrs", "_open")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs
        self._open = True

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def end(self, end: float | None = None, **attrs: Any) -> None:
        if not self._open:
            return
        self._open = False
        if attrs:
            self.attrs.update(attrs)
        self._tracer._close(self, end)

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self.end()


class _NullSpan:
    """Inert span handed out by :class:`NullTracer`."""

    __slots__ = ()

    span_id = 0
    parent_id = None

    def set(self, **attrs: Any) -> None:
        pass

    def end(self, end: float | None = None, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: every operation is a no-op.

    ``enabled`` is False so instrumentation sites can guard expensive
    attribute construction::

        if tracer.enabled:
            tracer.event("digest", node=node_id, bytes=len(payload))
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def begin(self, name: str, parent: Any = None, start: float | None = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        parent: Any = None,
        **attrs: Any,
    ) -> None:
        pass

    def event(self, name: str, time: float | None = None, **attrs: Any) -> int:
        return 0

    def sample(self, name: str, labels: dict, value: float, time: float | None = None) -> None:
        pass

    def push_context(self, ref: int) -> None:
        pass

    def pop_context(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans and instant events against a supplied clock.

    ``clock`` is typically ``lambda: loop.now`` for an
    :class:`~repro.simulation.events.EventLoop`; any zero-argument
    callable returning seconds works.  ``wall_clock=True`` additionally
    stamps each record with ``host_time`` (``time.monotonic()``) — never
    enable it when traces must be byte-comparable across runs.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float],
        sinks: list[TelemetrySink] | None = None,
        wall_clock: bool = False,
    ) -> None:
        self.clock = clock
        self.sinks = list(sinks or [])
        self.wall_clock = wall_clock
        self._next_id = 1
        self._stack: list[int] = []
        self.spans_recorded = 0
        self.events_recorded = 0
        self.samples_recorded = 0

    # -- span lifecycle -------------------------------------------------

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _current_parent(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span for use as a context manager (stack parentage)."""
        return self.begin(name, **attrs)

    def begin(
        self,
        name: str,
        parent: "Span | int | None" = None,
        start: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span with explicit lifetime; close via ``span.end()``."""
        parent_id = (
            parent.span_id
            if isinstance(parent, Span)
            else parent
            if parent is not None
            else self._current_parent()
        )
        return Span(
            self,
            self._new_id(),
            parent_id,
            name,
            self.clock() if start is None else start,
            attrs,
        )

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        parent: "Span | int | None" = None,
        **attrs: Any,
    ) -> None:
        """Record an already-completed span (simulated duration)."""
        span = self.begin(name, parent=parent, start=start, **attrs)
        span.end(end=end)

    def _close(self, span: Span, end: float | None) -> None:
        self.spans_recorded += 1
        record = {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": self.clock() if end is None else end,
            "attrs": span.attrs,
        }
        self._dispatch(record)

    def event(self, name: str, time: float | None = None, **attrs: Any) -> int:
        """Record an instant event; returns the record id.

        Event ids share the span id space, so an event can serve as a
        causal anchor: :meth:`push_context` makes it the parent of
        everything recorded until the matching :meth:`pop_context` —
        how message deliveries stitch the causal chain together.
        """
        self.events_recorded += 1
        event_id = self._new_id()
        record = {
            "type": "event",
            "id": event_id,
            "parent": self._current_parent(),
            "name": name,
            "ts": self.clock() if time is None else time,
            "attrs": attrs,
        }
        self._dispatch(record)
        return event_id

    def push_context(self, ref: int) -> None:
        """Make record ``ref`` the default parent for subsequent records."""
        self._stack.append(ref)

    def pop_context(self) -> None:
        if self._stack:
            self._stack.pop()

    def sample(
        self, name: str, labels: dict, value: float, time: float | None = None
    ) -> None:
        """Record one timestamped point of a gauge time-series.

        Samples are how metric *history* reaches the trace (the trailing
        metrics snapshot only keeps final values); the registry's bound
        sampler routes every gauge mutation here.
        """
        self.samples_recorded += 1
        record = {
            "type": "sample",
            "name": name,
            "labels": labels,
            "ts": self.clock() if time is None else time,
            "value": value,
        }
        self._dispatch(record)

    def _dispatch(self, record: dict) -> None:
        if self.wall_clock:
            # Host timestamps are opt-in profiling metadata, never fed
            # back into simulation state or digests.
            record["host_time"] = _time.monotonic()  # lint: allow DET002 wall-clock profiling sink
        for sink in self.sinks:
            sink.handle(record)


class InMemorySink:
    """Accumulates records in order; the default sink for tests/CLI."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def handle(self, record: dict) -> None:
        self.records.append(record)

    def spans(self, name: str | None = None) -> list[dict]:
        return [
            r
            for r in self.records
            if r["type"] == "span" and (name is None or r["name"] == name)
        ]

    def events(self, name: str | None = None) -> list[dict]:
        return [
            r
            for r in self.records
            if r["type"] == "event" and (name is None or r["name"] == name)
        ]

    def samples(self, name: str | None = None) -> list[dict]:
        return [
            r
            for r in self.records
            if r["type"] == "sample" and (name is None or r["name"] == name)
        ]

    def __len__(self) -> int:
        return len(self.records)
