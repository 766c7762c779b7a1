"""Simulated message network.

Used by the BFT replication library (control-tier replicas exchanging
protocol messages); worker digests and heartbeats are direct event-loop
hops.  Latency is sampled per message from a seeded stream, so
runs are reproducible; endpoint drop and delay rules model the
adversary's (limited) network powers — recall the paper's system model
forbids the adversary from *preventing* communication, but a Byzantine
*endpoint* may still refuse to send (omission).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro.simulation.events import EventLoop
from repro.telemetry import DISABLED

MessageHandler = Callable[[str, Any], None]

#: Delay rule: (sender, receiver, message) -> extra latency seconds to
#: add on top of the sampled base latency (0 for "no opinion").  Models
#: adversarial delay spikes on selected links without reordering the
#: underlying latency stream.
DelayRule = Callable[[str, str, Any], float]


@dataclass(frozen=True)
class LatencyModel:
    """Uniform latency in ``[base, base + jitter]`` seconds."""

    base: float = 0.001
    jitter: float = 0.002

    def sample(self, rng: random.Random) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + rng.random() * self.jitter


class NetworkFilter(Protocol):
    """Hook deciding whether a message is delivered.

    Implementations model Byzantine senders (selective omission).
    Return ``True`` to deliver.
    """

    def __call__(self, sender: str, receiver: str, message: Any) -> bool: ...


class _InFlight:
    """A scheduled-but-undelivered message, re-checkable by new filters."""

    __slots__ = ("sender", "receiver", "message", "dropped", "send_ref")

    def __init__(
        self, sender: str, receiver: str, message: Any, send_ref: int = 0
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.message = message
        self.dropped = False
        #: Trace id of the ``net.send`` event when causal tracing is on
        #: (0 otherwise) — the message id the matching ``net.recv``
        #: refers back to.  Lives on the in-flight entry, never on the
        #: message object itself, so payloads/digests are untouched.
        self.send_ref = send_ref


class SimNetwork:
    """Point-to-point message delivery over the event loop.

    Endpoints register a handler by name; :meth:`send` schedules delivery
    after a sampled latency.  Messages between live endpoints are never
    reordered per-link beyond what latency jitter induces, matching an
    asynchronous network without FIFO guarantees.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: random.Random,
        latency: LatencyModel | None = None,
        telemetry=None,
    ) -> None:
        self.loop = loop
        self.rng = rng
        self.latency = latency or LatencyModel()
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self._handlers: dict[str, MessageHandler] = {}
        self._filters: list[NetworkFilter] = []
        self._delay_rules: list[DelayRule] = []
        self._in_flight: list[_InFlight] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        #: Rejected by an installed filter (selective drop).
        self.messages_filtered = 0
        #: Receiver unknown at delivery time (never registered).
        self.messages_undeliverable = 0
        self.bytes_sent = 0

    @property
    def messages_dropped(self) -> int:
        """Total losses, whatever the cause (filtered + undeliverable)."""
        return self.messages_filtered + self.messages_undeliverable

    def register(self, name: str, handler: MessageHandler) -> None:
        """Register (or replace) the endpoint called ``name``."""
        self._handlers[name] = handler

    def add_filter(self, rule: NetworkFilter) -> None:
        """Install a delivery filter (all filters must approve delivery).

        The new filter also re-checks messages already in flight: a
        message delayed past a drop rule's installation is dropped, not
        delivered late — links that go down lose the packets they were
        carrying.
        """
        self._filters.append(rule)
        for entry in self._in_flight:
            if not entry.dropped and not rule(
                entry.sender, entry.receiver, entry.message
            ):
                entry.dropped = True
                self.messages_filtered += 1
                self._count("network_messages_dropped", cause="filtered")

    def add_delay(self, rule: DelayRule) -> None:
        """Install a delay rule; extra latencies from all rules add up."""
        self._delay_rules.append(rule)

    def _count(self, counter: str, **labels) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(counter, **labels).inc()

    def send(self, sender: str, receiver: str, message: Any, size_bytes: int = 0) -> None:
        """Send ``message``; delivery happens asynchronously (or never, if
        the receiver is unknown or a filter rejects it)."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self._count("network_messages_sent")
        for rule in self._filters:
            if not rule(sender, receiver, message):
                self.messages_filtered += 1
                self._count("network_messages_dropped", cause="filtered")
                return
        delay = self.latency.sample(self.rng)
        for rule in self._delay_rules:
            delay += max(rule(sender, receiver, message), 0.0)
        tracer = self.telemetry.tracer
        causal = self.telemetry.causal and tracer.enabled
        send_ref = 0
        if causal:
            # The send event's own trace id doubles as the message id:
            # the recv event carries it as ``mid``, giving the causal
            # DAG a send->recv edge without mutating the message.
            attrs = {
                "sender": sender,
                "receiver": receiver,
                "kind": type(message).__name__,
                "size": size_bytes,
            }
            # Protocol messages expose their round: seq/view make the
            # causal analysis's per-round grouping message-granular.
            seq = getattr(message, "seq", None)
            if seq is not None:
                attrs["seq"] = seq
            view = getattr(message, "view", None)
            if view is not None:
                attrs["view"] = view
            send_ref = tracer.event("net.send", **attrs)
        entry = _InFlight(sender, receiver, message, send_ref=send_ref)
        self._in_flight.append(entry)

        def deliver() -> None:
            self._in_flight.remove(entry)
            if entry.dropped:
                # Caught by a filter installed while in flight; already
                # counted when the filter swept it.
                return
            handler = self._handlers.get(receiver)
            if handler is None:
                # No such endpoint: silently drop, as a real datagram
                # network would.
                self.messages_undeliverable += 1
                self._count("network_messages_dropped", cause="undeliverable")
                if causal:
                    tracer.event(
                        "net.lost", mid=entry.send_ref, cause="undeliverable"
                    )
                return
            self.messages_delivered += 1
            self._count("network_messages_delivered")
            if causal:
                recv_ref = tracer.event(
                    "net.recv",
                    mid=entry.send_ref,
                    sender=sender,
                    receiver=receiver,
                    kind=type(message).__name__,
                )
                # Everything the handler records — protocol spans,
                # follow-up sends — parents to this delivery, which is
                # exactly the causal chain.
                tracer.push_context(recv_ref)
                try:
                    handler(sender, message)
                finally:
                    tracer.pop_context()
            else:
                handler(sender, message)

        self.loop.schedule(delay, deliver, label=f"net:{sender}->{receiver}")

    def broadcast(self, sender: str, receivers: list[str], message: Any, size_bytes: int = 0) -> None:
        """Send ``message`` to every receiver independently.

        Receivers are visited in sorted order so latency-stream
        consumption — and therefore the whole downstream simulation —
        does not depend on the caller's list ordering.
        """
        for receiver in sorted(receivers):
            self.send(sender, receiver, message, size_bytes)


def selective_drop(
    endpoints: set[str], probability: float, rng: random.Random
) -> NetworkFilter:
    """Endpoint network fault: messages *from* ``endpoints`` are dropped
    with ``probability`` (a Byzantine endpoint refusing to send — the
    adversary may silence its own nodes, never the network at large)."""

    def rule(sender: str, receiver: str, message: Any) -> bool:
        if sender not in endpoints:
            return True
        return rng.random() >= probability

    return rule


def delay_spike(
    endpoints: set[str],
    extra_seconds: float,
    rng: random.Random,
    probability: float = 1.0,
) -> DelayRule:
    """Endpoint network fault: messages from ``endpoints`` arrive late by
    ``extra_seconds`` (with ``probability``) — a slow link rather than a
    lossy one, so protocol timeouts fire while data still arrives."""

    def rule(sender: str, receiver: str, message: Any) -> float:
        if sender not in endpoints:
            return 0.0
        if probability < 1.0 and rng.random() >= probability:
            return 0.0
        return extra_seconds

    return rule
