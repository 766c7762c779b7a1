"""Region-aware cluster, placement, and engine behaviour.

Covers the geo layer end to end below the controller: region triples in
:class:`ClusterConfig`, per-node region/speed wiring in the cluster,
region-homed replica placement in :class:`ClusterBFTScheduler`, speed
scaling in the engine, and task evacuation (the migration primitive the
reconfiguration engine drives).
"""

import random

import pytest

from repro.common.config import ClusterConfig, ConfigError, CostModelConfig
from repro.common.records import records_from_rows
from repro.compiler.mr_compiler import CompileOptions, compile_plan
from repro.dataflow.piglatin import parse_script
from repro.faults.injection import FaultPlan
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.scheduler import ClusterBFTScheduler, NaiveScheduler
from repro.simulation.events import EventLoop
from repro.storage.dfs import TrustedDFS

from .test_engine import SCRIPT, run_graph

_REGIONS = (("east", 2, 1.0), ("west", 2, 1.0), ("south", 2, 1.0))


def geo_config(regions=_REGIONS, num_nodes=6, **kwargs):
    kwargs.setdefault("slots_per_node", 2)
    kwargs.setdefault("heartbeat_period", 0.5)
    return ClusterConfig(num_nodes=num_nodes, regions=regions, **kwargs)


class TestClusterConfigRegions:
    def test_counts_must_sum_to_num_nodes(self):
        with pytest.raises(ConfigError):
            geo_config(num_nodes=7).validate()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            geo_config(
                regions=(("east", 3, 1.0), ("east", 3, 1.0))
            ).validate()

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ConfigError):
            geo_config(
                regions=(("east", 3, 0.0), ("west", 3, 1.0))
            ).validate()

    def test_negative_wan_rejected(self):
        with pytest.raises(ConfigError):
            geo_config(wan_latency_seconds=-1.0).validate()

    def test_index_helpers(self):
        config = geo_config().validate()
        assert config.region_of_index(0) == "east"
        assert config.region_of_index(5) == "south"
        assert config.speed_of_index(3) == 1.0
        assert config.control_region() == "east"
        assert config.wan_seconds("east", "west") == config.wan_latency_seconds
        assert config.wan_seconds("east", "east") == 0.0

    def test_flat_cluster_helpers_are_noops(self):
        config = ClusterConfig(num_nodes=4).validate()
        assert config.region_of_index(2) == ""
        assert config.speed_of_index(2) == 1.0
        assert config.wan_seconds("", "") == 0.0

    def test_json_round_trip_preserves_regions(self):
        config = geo_config().validate()
        from repro.common.config import SystemConfig
        from repro.core import journal as wal

        system = SystemConfig(cluster=config)
        restored = wal.config_from_json(wal.config_to_json(system))
        assert restored.cluster.region_of_index(5) == "south"
        assert restored.cluster.wan_latency_seconds == config.wan_latency_seconds


class TestClusterRegions:
    def test_nodes_carry_region_and_speed(self):
        cluster = Cluster(
            geo_config(regions=(("east", 2, 1.0), ("slow", 4, 0.5)))
        )
        assert cluster.node("node_0001").region == "east"
        assert cluster.node("node_0002").region == "slow"
        assert cluster.node("node_0002").speed == 0.5

    def test_region_helpers(self):
        cluster = Cluster(geo_config())
        assert cluster.regions() == ["east", "west", "south"]
        assert cluster.region_node_ids("west") == ["node_0002", "node_0003"]
        assert cluster.node("node_0004").region == "south"

    def test_flat_cluster_has_no_regions(self):
        cluster = Cluster(ClusterConfig(num_nodes=3))
        assert cluster.regions() == []
        assert cluster.node("node_0000").region == ""


class _Run:
    """Just enough of a JobRun for eligibility checks."""

    def __init__(self, replica, total=4, sid="s1"):
        self.replica = replica
        self.total_replicas = total
        self.sid = sid


class TestRegionPlacement:
    def make_scheduler(self, regions=_REGIONS, num_nodes=6):
        cluster = Cluster(geo_config(regions=regions, num_nodes=num_nodes))
        scheduler = ClusterBFTScheduler()
        scheduler.set_cluster(cluster)
        return cluster, scheduler

    def eligible_regions(self, cluster, scheduler, run):
        return {
            node.region
            for node in (cluster.node(n) for n in cluster.node_ids())
            if scheduler.eligible(node, run)
        }

    def test_each_replica_homes_in_one_region(self):
        cluster, scheduler = self.make_scheduler()
        for replica in range(4):
            regions = self.eligible_regions(cluster, scheduler, _Run(replica))
            assert len(regions) == 1

    def test_replica_set_spans_multiple_regions(self):
        """r >= 3 must never concentrate in one region when more than
        one region is live (the geo anti-collocation requirement)."""
        for total in (3, 4, 5):
            cluster, scheduler = self.make_scheduler()
            homes = set()
            for replica in range(total):
                homes |= self.eligible_regions(
                    cluster, scheduler, _Run(replica, total=total)
                )
            assert len(homes) >= 2

    def test_region_gone_dark_rehomes_replicas(self):
        cluster, scheduler = self.make_scheduler()
        south_home = {
            replica
            for replica in range(4)
            if self.eligible_regions(cluster, scheduler, _Run(replica))
            == {"south"}
        }
        assert south_home  # someone homed there before the outage
        for node_id in cluster.region_node_ids("south"):
            scheduler.quarantine(node_id)
        for replica in range(4):
            regions = self.eligible_regions(cluster, scheduler, _Run(replica))
            assert regions and "south" not in regions

    def test_single_live_region_falls_back_to_flat_partition(self):
        cluster, scheduler = self.make_scheduler()
        for region in ("west", "south"):
            for node_id in cluster.region_node_ids(region):
                scheduler.quarantine(node_id)
        flat_cluster = Cluster(ClusterConfig(num_nodes=6, slots_per_node=2))
        flat = ClusterBFTScheduler()
        flat.set_cluster(flat_cluster)
        run = _Run(0, total=2)
        surviving = cluster.region_node_ids("east")
        got = [n for n in surviving if scheduler.eligible(cluster.node(n), run)]
        want = [
            n for n in surviving if flat.eligible(flat_cluster.node(n), run)
        ]
        assert got == want

    def test_flat_cluster_placement_unchanged(self):
        """No regions declared: eligibility must equal the original
        modulo partition for every (node, replica) pair."""
        cluster = Cluster(ClusterConfig(num_nodes=6, slots_per_node=2))
        scheduler = ClusterBFTScheduler()
        scheduler.set_cluster(cluster)
        for replica in range(4):
            run = _Run(replica)
            got = [
                node_id
                for node_id in cluster.node_ids()
                if scheduler.eligible(cluster.node(node_id), run)
            ]
            want = [
                node_id
                for index, node_id in enumerate(cluster.node_ids())
                if index % 4 == replica % 4
            ]
            assert got == want


def build_geo_engine(regions, num_nodes, scheduler=None):
    loop = EventLoop()
    dfs = TrustedDFS(block_bytes=512)
    cluster = Cluster(
        geo_config(regions=regions, num_nodes=num_nodes), FaultPlan()
    )
    dfs.set_placement_nodes(cluster.node_ids())
    engine = MapReduceEngine(
        loop,
        dfs,
        cluster,
        scheduler or NaiveScheduler(),
        CostModelConfig(),
        random.Random(7),
    )
    return loop, dfs, cluster, engine


ROWS = [(i % 5, i) for i in range(100)]


class TestSpeedScaling:
    def run_to_idle(self, regions):
        loop, dfs, cluster, engine = build_geo_engine(regions, 2)
        dfs.write_file("in", records_from_rows(ROWS))
        graph = compile_plan(parse_script(SCRIPT), CompileOptions(num_reducers=2))
        run_graph(engine, loop, dfs, graph, prefix="r0/")
        loop.run_until_idle()
        return loop.now, sorted(r.fields for r in dfs.read("r0/out"))

    def test_unit_speed_region_is_byte_identical_to_flat(self):
        loop, dfs, cluster, engine = build_geo_engine((), 2)
        dfs.write_file("in", records_from_rows(ROWS))
        graph = compile_plan(parse_script(SCRIPT), CompileOptions(num_reducers=2))
        run_graph(engine, loop, dfs, graph, prefix="r0/")
        loop.run_until_idle()
        flat_now = loop.now
        geo_now, _ = self.run_to_idle((("only", 2, 1.0),))
        assert geo_now == flat_now  # x / 1.0 is exact under IEEE 754

    def test_slow_region_stretches_the_run(self):
        fast_now, fast_out = self.run_to_idle((("only", 2, 1.0),))
        slow_now, slow_out = self.run_to_idle((("only", 2, 0.5),))
        assert slow_now > fast_now
        assert slow_out == fast_out  # slowness never changes results


class TestEvacuation:
    def test_evacuate_resets_running_tasks_and_run_completes(self):
        loop, dfs, cluster, engine = build_geo_engine((), 3)
        dfs.write_file("in", records_from_rows(ROWS))
        graph = compile_plan(parse_script(SCRIPT), CompileOptions(num_reducers=2))
        run_graph(engine, loop, dfs, graph, prefix="r0/")
        # Let the first heartbeats assign work, then migrate off node 0.
        loop.run_until(0.8)
        engine.scheduler.quarantine("node_0000")
        moved = engine.evacuate_node("node_0000")
        assert moved >= 1
        loop.run_until_idle()
        assert sorted(r.fields for r in dfs.read("r0/out"))

    def test_evacuate_idle_node_moves_nothing(self):
        loop, dfs, cluster, engine = build_geo_engine((), 2)
        assert engine.evacuate_node("node_0001") == 0
