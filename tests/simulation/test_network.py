"""Tests for the simulated message network."""

import random

from repro.simulation.events import EventLoop
from repro.simulation.network import (
    LatencyModel,
    SimNetwork,
    delay_spike,
    selective_drop,
)
from repro.telemetry import Telemetry


def make_network(latency=None):
    loop = EventLoop()
    return loop, SimNetwork(loop, random.Random(0), latency or LatencyModel())


class TestDelivery:
    def test_message_delivered_to_handler(self):
        loop, net = make_network()
        inbox = []
        net.register("b", lambda sender, msg: inbox.append((sender, msg)))
        net.send("a", "b", "hello")
        loop.run_until_idle()
        assert inbox == [("a", "hello")]

    def test_delivery_is_delayed_by_latency(self):
        loop, net = make_network(LatencyModel(base=0.5, jitter=0.0))
        net.register("b", lambda *a: None)
        net.send("a", "b", "x")
        loop.run_until_idle()
        assert loop.now == 0.5

    def test_unknown_receiver_silently_dropped(self):
        loop, net = make_network()
        net.send("a", "ghost", "x")
        loop.run_until_idle()
        assert net.messages_dropped == 1
        # The loss is classified by cause, not just counted.
        assert net.messages_undeliverable == 1
        assert net.messages_filtered == 0

    def test_broadcast_reaches_everyone(self):
        loop, net = make_network()
        inbox = []
        for name in ("b", "c", "d"):
            net.register(name, lambda s, m, n=name: inbox.append(n))
        net.broadcast("a", ["b", "c", "d"], "x")
        loop.run_until_idle()
        assert sorted(inbox) == ["b", "c", "d"]

    def test_counters(self):
        loop, net = make_network()
        net.register("b", lambda *a: None)
        net.send("a", "b", "x", size_bytes=100)
        loop.run_until_idle()
        assert net.messages_sent == 1
        assert net.messages_delivered == 1
        assert net.bytes_sent == 100


class TestFilters:
    def test_filter_blocks_delivery(self):
        loop, net = make_network()
        inbox = []
        net.register("b", lambda s, m: inbox.append(m))
        net.add_filter(lambda s, r, m: False)
        net.send("a", "b", "x")
        loop.run_until_idle()
        assert inbox == [] and net.messages_dropped == 1
        assert net.messages_filtered == 1
        assert net.messages_undeliverable == 0


class TestEndpointFaults:
    def test_selective_drop_silences_only_target(self):
        loop, net = make_network()
        inbox = []
        net.register("c", lambda s, m: inbox.append((s, m)))
        net.add_filter(selective_drop({"bad"}, 1.0, random.Random(0)))
        net.send("bad", "c", "x")
        net.send("good", "c", "y")
        loop.run_until_idle()
        assert inbox == [("good", "y")]
        assert net.messages_filtered == 1

    def test_selective_drop_probability_statistics(self):
        loop, net = make_network()
        net.register("c", lambda *a: None)
        net.add_filter(selective_drop({"bad"}, 0.3, random.Random(1)))
        for _ in range(2000):
            net.send("bad", "c", "x")
        loop.run_until_idle()
        assert 450 < net.messages_filtered < 750

    def test_delay_spike_slows_only_target(self):
        loop, net = make_network(LatencyModel(base=0.1, jitter=0.0))
        arrivals = {}
        net.register("c", lambda s, m: arrivals.setdefault(s, loop.now))
        net.add_delay(delay_spike({"slow"}, 2.0, random.Random(0)))
        net.send("slow", "c", "x")
        net.send("fast", "c", "y")
        loop.run_until_idle()
        assert arrivals["fast"] == 0.1
        assert arrivals["slow"] == 2.1
        assert net.messages_dropped == 0  # a slow link, not a lossy one

    def test_negative_delay_contribution_clamped(self):
        loop, net = make_network(LatencyModel(base=0.1, jitter=0.0))
        net.register("c", lambda *a: None)
        net.add_delay(lambda s, r, m: -100.0)
        net.send("a", "c", "x")
        loop.run_until_idle()
        assert loop.now == 0.1


class TestTelemetryCounters:
    def make_instrumented(self):
        loop = EventLoop()
        telemetry = Telemetry.recording(clock=lambda: loop.now)
        net = SimNetwork(loop, random.Random(0), LatencyModel(), telemetry=telemetry)
        return loop, net, telemetry

    def test_drop_causes_are_labelled(self):
        loop, net, telemetry = self.make_instrumented()
        net.register("b", lambda *a: None)
        net.add_filter(selective_drop({"bad"}, 1.0, random.Random(0)))
        net.send("bad", "b", "x")  # filtered
        net.send("a", "ghost", "x")  # undeliverable
        net.send("a", "b", "x")  # delivered
        loop.run_until_idle()
        metrics = {
            (m["name"], tuple(sorted(m.get("labels", {}).items()))): m["value"]
            for m in telemetry.metrics.snapshot()
            if m["name"].startswith("network_")
        }
        assert metrics[("network_messages_sent", ())] == 3
        assert metrics[("network_messages_dropped", (("cause", "filtered"),))] == 1
        assert (
            metrics[("network_messages_dropped", (("cause", "undeliverable"),))] == 1
        )


class TestBroadcastLatencyOrder:
    def test_samples_drawn_in_sorted_receiver_order(self):
        """Broadcast arrival times must not depend on the order the
        caller lists receivers — one latency sample per receiver, drawn
        in sorted-receiver order (regression: an unsorted draw order
        would silently change every downstream seeded timing)."""
        loop1, net1 = make_network(LatencyModel(base=0.1, jitter=0.5))
        t1 = {}
        for name in ("b", "c", "d"):
            net1.register(name, lambda s, m, n=name: t1.setdefault(n, loop1.now))
        net1.broadcast("a", ["c", "b", "d"], "x")
        loop1.run_until_idle()
        loop2, net2 = make_network(LatencyModel(base=0.1, jitter=0.5))
        t2 = {}
        for name in ("b", "c", "d"):
            net2.register(name, lambda s, m, n=name: t2.setdefault(n, loop2.now))
        net2.broadcast("a", ["d", "c", "b"], "x")
        loop2.run_until_idle()
        assert t1 == t2


class TestInFlightSweep:
    def test_delayed_message_cut_by_partition_is_dropped_not_late(self):
        """A message delayed past a drop rule's onset must be dropped
        when the rule lands — not delivered late at its arrival time."""
        loop, net = make_network(LatencyModel(base=1.0, jitter=0.0))
        inbox = []
        net.register("b", lambda s, m: inbox.append(m))
        net.add_delay(delay_spike({"a"}, 5.0, random.Random(0)))
        net.send("a", "b", "x")  # in flight until t=6
        rule = selective_drop({"a"}, 1.0, random.Random(0))
        loop.schedule(2.0, lambda: net.add_filter(rule), "cut")
        loop.run_until_idle()
        assert inbox == []
        assert net.messages_filtered == 1
        assert net.messages_delivered == 0

    def test_in_flight_message_allowed_by_filter_still_arrives(self):
        loop, net = make_network(LatencyModel(base=1.0, jitter=0.0))
        inbox = []
        net.register("b", lambda s, m: inbox.append(m))
        net.send("a", "b", "x")
        net.add_filter(selective_drop({"c"}, 1.0, random.Random(0)))  # not "a"
        loop.run_until_idle()
        assert inbox == ["x"]


class TestLatencyModel:
    def test_jitter_bounds(self):
        model = LatencyModel(base=1.0, jitter=0.5)
        rng = random.Random(0)
        for _ in range(100):
            sample = model.sample(rng)
            assert 1.0 <= sample <= 1.5

    def test_no_jitter_is_constant(self):
        model = LatencyModel(base=0.25, jitter=0.0)
        assert model.sample(random.Random(0)) == 0.25
