"""Discrete-event simulation core.

Everything in the reproduction that the paper measured in wall-clock
time (task execution, shuffle, digest transmission, verifier timeouts,
BFT message rounds) is scheduled on one :class:`EventLoop`.  The loop is
single-threaded and deterministic: events at equal timestamps fire in
scheduling order.

The loop is also the **span clock source** for the telemetry subsystem:
tracers bind ``lambda: loop.now`` so every span timestamp is simulated
time.  The optional :attr:`EventLoop.on_event` hook lets telemetry count
processed events by label family; it must never mutate the loop (the
hook fires between the clock advance and the callback, and a ``None``
hook costs a single comparison per event).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.common.errors import SimulationError

Callback = Callable[[], None]


class EventHandle:
    """One scheduled event, as returned by :meth:`EventLoop.schedule`;
    supports cancellation.  The queue holds ``(time, seq, handle)``
    tuples, so heap sifts compare floats and ints in C."""

    __slots__ = ("time", "callback", "label", "cancelled")

    def __init__(self, time: float, callback: Callback, label: str) -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """A deterministic discrete-event loop.

    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule(2.0, lambda: fired.append("b"))
    >>> _ = loop.schedule(1.0, lambda: fired.append("a"))
    >>> loop.run_until_idle()
    >>> fired
    ['a', 'b']
    >>> loop.now
    2.0
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        #: Observation hook: called with each fired event's label.
        self.on_event: Callable[[str], None] | None = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, callback: Callback, label: str = "") -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(self, time: float, callback: Callback, label: str = "") -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self._now})"
            )
        event = EventHandle(time, callback, label)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        return event

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return sum(1 for _, _, e in self._queue if not e.cancelled)

    def step(self) -> bool:
        """Run the single earliest event; return False if none remain."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            if self.on_event is not None:
                self.on_event(event.label)
            event.callback()
            return True
        return False

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain.  ``max_events`` guards against
        runaway self-rescheduling loops (e.g. unbounded heartbeats)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise SimulationError(f"run_until_idle exceeded {max_events} events")

    def run_until(self, deadline: float, max_events: int = 10_000_000) -> None:
        """Run events with ``time <= deadline``; advance clock to deadline."""
        for _ in range(max_events):
            if not self._queue:
                break
            time, _, head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if time > deadline:
                break
            self.step()
        else:
            raise SimulationError(f"run_until exceeded {max_events} events")
        self._now = max(self._now, deadline)

    def run_while(self, condition: Callable[[], bool], max_events: int = 10_000_000) -> None:
        """Run while ``condition()`` holds and events remain."""
        for _ in range(max_events):
            if not condition():
                return
            if not self.step():
                return
        raise SimulationError(f"run_while exceeded {max_events} events")
