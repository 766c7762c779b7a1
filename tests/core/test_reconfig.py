"""Online reconfiguration: region suspicion, migration, WAL replay.

The reconfiguration engine aggregates the per-node suspicion tracker by
region; a region crossing the configured threshold has its schedulable
nodes quarantined and its in-flight tasks evacuated (first-completion
-wins re-dispatch), with the decision journaled write-ahead as a
``reconfig`` record so a crash mid-migration resumes into the same
placement.
"""

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import encode_record, records_from_rows
from repro.core import journal as wal
from repro.core.audit import RECONFIG
from repro.core.controller import ClusterBFTController
from repro.core.recovery import resume_run
from repro.core.suspicion import NodeSuspicion
from repro.faults.behaviors import EquivocateBehavior
from repro.faults.injection import FaultPlan

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""

ROWS = [(i % 8, (i * 13) % 997) for i in range(320)]

_REGIONS = (("east", 4, 1.0), ("west", 4, 1.0), ("slow", 4, 0.5))


def geo_config(threshold=0.2, min_jobs=2, seed=20131210):
    return SystemConfig(
        cluster=ClusterConfig(
            num_nodes=12,
            slots_per_node=3,
            heartbeat_period=0.4,
            regions=_REGIONS,
            wan_latency_seconds=0.25,
        ),
        bft=ClusterBFTConfig(
            f=1,
            replication=4,
            verification_points=1,
            region_suspicion_threshold=threshold,
            region_min_jobs=min_jobs,
        ),
        seed=seed,
    )


def equivocator():
    plan = FaultPlan()
    plan.assign("node_0008", EquivocateBehavior(probability=1.0))
    return plan


def make_controller(config, fault_plan=None, journal=None):
    controller = ClusterBFTController(
        config, fault_plan=fault_plan, block_bytes=2048, journal=journal
    )
    controller.load_input("in", records_from_rows(ROWS))
    return controller


def canonical(outputs):
    return {
        path: [encode_record(r) for r in records]
        for path, records in outputs.items()
    }


class TestMigrationTrigger:
    def run_geo(self, threshold=0.2):
        controller = make_controller(
            geo_config(threshold=threshold), fault_plan=equivocator()
        )
        results = [controller.run_assured(SCRIPT) for _ in range(2)]
        return controller, results

    def test_region_crossing_threshold_migrates(self):
        controller, results = self.run_geo()
        events = controller.audit.events(kind=RECONFIG)
        assert events, "suspicion never triggered a migration"
        regions = {event.subject for event in events}
        assert "slow" in regions  # the equivocator's region moved out
        for event in events:
            for node_id in event.details["nodes"]:
                assert controller.scheduler.is_quarantined(node_id)
        assert all(result.assured for result in results)

    def test_disabled_threshold_never_migrates(self):
        controller = make_controller(
            geo_config(threshold=None), fault_plan=equivocator()
        )
        controller.run_assured(SCRIPT)
        assert controller.audit.events(kind=RECONFIG) == []

    def test_migration_is_once_per_region(self):
        controller, _results = self.run_geo()
        subjects = [e.subject for e in controller.audit.events(kind=RECONFIG)]
        assert len(subjects) == len(set(subjects))

    def test_region_suspicion_aggregates_tracker(self):
        controller = make_controller(geo_config())
        controller.resources.suspicion.nodes["node_0000"] = NodeSuspicion(
            jobs_executed=4, faults_associated=1
        )
        controller.resources.suspicion.nodes["node_0001"] = NodeSuspicion(
            jobs_executed=4, faults_associated=3
        )
        level, jobs = controller.resources.region_suspicion("east")
        assert jobs == 8
        assert level == pytest.approx(0.5)
        assert controller.resources.region_suspicion("west") == (0.0, 0)


class TestLastRegionGuard:
    def test_never_drains_the_last_schedulable_region(self):
        controller = make_controller(geo_config(min_jobs=1))
        # Every region far past the threshold: only two may migrate.
        for node_id in controller.cluster.node_ids():
            controller.resources.suspicion.nodes[node_id] = NodeSuspicion(
                jobs_executed=10, faults_associated=9
            )
        controller.resources.reconfigure(None)  # the run has no journal
        migrated = {e.subject for e in controller.audit.events(kind=RECONFIG)}
        assert len(migrated) == 2
        survivor = (set(controller.cluster.regions()) - migrated).pop()
        for node_id in controller.cluster.region_node_ids(survivor):
            assert not controller.scheduler.is_quarantined(node_id)


class TestReconfigWal:
    def journaled_geo_run(self, path, crash_hook=None):
        config = geo_config()
        journal = wal.Journal.create(
            path,
            config,
            SCRIPT,
            {"in": records_from_rows(ROWS)},
            block_bytes=2048,
            crash_hook=crash_hook,
        )
        controller = make_controller(
            config, fault_plan=equivocator(), journal=journal
        )
        return controller.run_assured(SCRIPT)

    def test_reconfig_record_is_journaled_and_synced(self, tmp_path):
        path = str(tmp_path / "geo.wal")
        self.journaled_geo_run(path)
        records, _ = wal.read_journal(path)
        reconfigs = [r for r in records if r["kind"] == wal.RECONFIG]
        assert reconfigs, "migration happened but left no WAL record"
        record = reconfigs[0]
        assert record["nodes"] == sorted(record["nodes"])
        assert {"region", "suspicion", "jobs", "sids"} <= set(record)
        assert wal.RECONFIG in wal.SYNC_KINDS

    def test_crash_right_after_reconfig_resumes_equivalently(self, tmp_path):
        reference_path = str(tmp_path / "ref.wal")
        reference = self.journaled_geo_run(reference_path)
        records, _ = wal.read_journal(reference_path)
        reconfig_seq = next(
            r["seq"] for r in records if r["kind"] == wal.RECONFIG
        )
        crash_path = str(tmp_path / "crash.wal")
        with pytest.raises(wal.ControlTierCrash):
            self.journaled_geo_run(
                crash_path, crash_hook=wal.crash_at(reconfig_seq)
            )
        recovered = resume_run(crash_path, fault_plan=equivocator())
        # The resumed scheduler must not move work back into the
        # migrated region: the replayed reconfig re-quarantines it.
        reconfig = next(
            r
            for r in wal.read_journal(crash_path)[0]
            if r["kind"] == wal.RECONFIG
        )
        for node_id in reconfig["nodes"]:
            assert recovered.controller.scheduler.is_quarantined(node_id)
        assert recovered.result.assured == reference.assured
        assert canonical(recovered.result.outputs) == canonical(
            reference.outputs
        )
