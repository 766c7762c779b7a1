"""The trace_overhead benchmark: zero sim-time perturbation, bounded
host-time cost.

The committed BENCH_trace_overhead.json baselines gate the *simulated*
side (identical output digests and latency across untraced / traced /
causal-traced).  The host-time bound lives here, deliberately loose —
wall-clock numbers can never enter the bench payload because CI
byte-compares double runs.
"""

import time

from repro.bench.suites import spec_by_name


def metrics_by_name(rows):
    return {row["name"]: row["value"] for row in rows}


class TestTraceOverheadBench:
    def test_registered(self):
        spec = spec_by_name("trace_overhead")
        assert spec.seed == 20131209

    def test_smoke_payload_proves_zero_sim_perturbation(self):
        rows = spec_by_name("trace_overhead").run(True).metrics  # smoke sizes
        values = metrics_by_name(rows)
        assert values["output_digest_match_traced"] == 1
        assert values["output_digest_match_causal"] == 1
        assert values["latency_delta_traced"] == 0.0
        assert values["latency_delta_causal"] == 0.0
        assert values["causal_extra_records"] > 0
        assert values["causal_orphans"] == 0

    def test_no_host_time_metrics_in_payload(self):
        # The CI bench-smoke job byte-compares double runs; any
        # wall-clock value in the payload would break that.
        rows = spec_by_name("trace_overhead").run(True).metrics
        for row in rows:
            assert "host" not in row["name"]
            assert "wall" not in row["name"]
            assert row["units"] in ("bool", "simulated_seconds", "records", "edges", "spans")


class TestHostTimeOverheadBound:
    def test_causal_tracing_host_overhead_is_bounded(self):
        """Causal tracing may cost host time (more records, context
        pushes) but must stay within a generous constant factor of the
        untraced run — it adds bookkeeping, not algorithmic blowup."""
        from repro.common.config import (
            ClusterBFTConfig,
            ClusterConfig,
            SystemConfig,
        )
        from repro.core.controller import ClusterBFTController
        from repro.telemetry import Telemetry
        from repro.workloads import FOLLOWER_ANALYSIS, follower_edges

        def timed(telemetry):
            config = SystemConfig(
                cluster=ClusterConfig(num_nodes=8, slots_per_node=2),
                bft=ClusterBFTConfig(f=1, replication=2, verification_points=1),
                seed=20131209,
            )
            controller = ClusterBFTController(config, telemetry=telemetry)
            controller.load_input("twitter/followers", follower_edges(800))
            start = time.monotonic()
            controller.run_assured(FOLLOWER_ANALYSIS)
            return time.monotonic() - start

        timed(None)  # warm imports/JIT-ish caches before measuring
        untraced = min(timed(None) for _ in range(2))
        causal = min(
            timed(Telemetry.recording(causal=True)) for _ in range(2)
        )
        # Generous bound: an order of magnitude plus scheduling slack.
        assert causal < untraced * 10 + 1.0, (
            f"causal tracing host overhead too high: "
            f"{causal:.3f}s vs {untraced:.3f}s untraced"
        )
