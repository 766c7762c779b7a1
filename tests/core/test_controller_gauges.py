"""Controller-side suspicion gauge publication.

The controller and the isolation simulator share ONE publication path
(:func:`repro.core.gauges.publish_suspicion`), so chaos-campaign and
assured-run traces carry the same suspicion/quarantine series that
``repro report`` section 4 and the benchmarks read back.
"""

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import records_from_rows
from repro.core.controller import ClusterBFTController
from repro.faults.injection import single_commission
from repro.telemetry import Telemetry
from repro.telemetry.analysis import gauge_series, last_gauge_value

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""

ROWS = [(i % 5, i) for i in range(300)]


def run_controller(fault_plan=None):
    telemetry = Telemetry.recording()
    config = SystemConfig(
        cluster=ClusterConfig(
            num_nodes=12, slots_per_node=3, heartbeat_period=0.5
        ),
        bft=ClusterBFTConfig(
            f=1, replication=4, verification_points=1, verifier_timeout=60.0
        ),
    )
    controller = ClusterBFTController(
        config, fault_plan=fault_plan, block_bytes=2048, telemetry=telemetry
    )
    controller.load_input("in", records_from_rows(ROWS))
    result = controller.run_assured(SCRIPT)
    return controller, result, telemetry.export_records()


class TestCleanRun:
    def test_publishes_zeroed_suspicion_series(self):
        _, result, records = run_controller()
        assert result.assured
        assert last_gauge_value(records, "suspicion_suspects") == 0.0
        assert last_gauge_value(records, "nodes_quarantined") == 0.0
        series = gauge_series(records, "suspicion_band_nodes", band="high")
        assert series
        assert all(value == 0.0 for _, value in series)


class TestFaultyRun:
    def test_commission_fault_raises_series_then_matches_state(self):
        controller, result, records = run_controller(
            fault_plan=single_commission("node_0000")
        )
        assert result.assured  # rerun recovers
        suspects = gauge_series(records, "suspicion_suspects")
        assert max(value for _, value in suspects) > 0.0
        assert last_gauge_value(records, "suspicion_suspects") == float(
            len(controller.resources.suspicion.suspects())
        )
        assert last_gauge_value(records, "nodes_quarantined") == float(
            len(controller.scheduler.quarantined)
        )

    def test_band_counts_match_tracker(self):
        controller, _, records = run_controller(
            fault_plan=single_commission("node_0000")
        )
        bands = controller.resources.suspicion.band_counts()
        for band in ("none", "low", "med", "high"):
            assert last_gauge_value(
                records, "suspicion_band_nodes", 0.0, band=band
            ) == float(bands[band])

    def test_disabled_telemetry_output_unchanged(self):
        config = SystemConfig(
            cluster=ClusterConfig(
                num_nodes=12, slots_per_node=3, heartbeat_period=0.5
            ),
            bft=ClusterBFTConfig(
                f=1, replication=4, verification_points=1, verifier_timeout=60.0
            ),
        )

        def run(telemetry):
            controller = ClusterBFTController(
                config,
                fault_plan=single_commission("node_0000"),
                block_bytes=2048,
                telemetry=telemetry,
            )
            controller.load_input("in", records_from_rows(ROWS))
            return controller.run_assured(SCRIPT)

        traced = run(Telemetry.recording())
        plain = run(None)
        assert traced.outputs == plain.outputs
        assert traced.latency == plain.latency
        assert traced.attempts == plain.attempts
