"""Bit-rot on a reducer's shuffle spill (``engine._execute_reduce``).

A node whose behaviour ``corrupts_storage`` reads its spilled shuffle
through the same fault hook as its DFS blocks.  The fault changes
records, never keys, so every entry keeps the key encoding the map side
made for it (DESIGN.md §22), and the run's verdict is the one the code
reached before keys were carried encoded.
"""

import hashlib
import random

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import encode_record, encode_value
from repro.core.controller import ClusterBFTController
from repro.faults.behaviors import StorageCorruptionBehavior
from repro.faults.injection import FaultPlan
from repro.mapreduce import engine as engine_module
from repro.mapreduce.engine import JobRun
from repro.workloads import TWO_HOP_ANALYSIS, follower_edges

SEED = 20131209
BAD_NODE = "node_0003"
#: Verdict, latency and output digest of this run, computed with the code
#: of the commit before shuffle entries carried their key's encoding.
PARENT_VERDICT = {
    "assured": True,
    "attempts": 1,
    "latency": 6.429035723517102,
    "verdicts": [
        ("script0001.a0.j0", "verified", [0, 1]),
        ("script0001.a0.j1", "verified", [0, 1]),
    ],
    "quarantined": [],
    "outputs": "b320eebb25224af3df31fa2568b6b9fb8dbc808f317b7df112c3c04f82cb1ea1",
}


def run_with_rotting_reducer(monkeypatch):
    """Run two-hop with ``BAD_NODE`` rotting every read; return the verdict
    and ``(clean shuffle, what the rotting reducer received)`` pairs."""
    spilled, gathered = [], []
    reduce_input = JobRun.reduce_input
    execute = engine_module.execute_reduce_task

    def spy_input(run, partition):
        gathered.append(reduce_input(run, partition))
        return gathered[-1]

    def spy_execute(spec, keyed, behavior, rng):
        if behavior.corrupts_storage:
            spilled.append((gathered[-1], keyed))
        return execute(spec, keyed, behavior, rng)

    monkeypatch.setattr(JobRun, "reduce_input", spy_input)
    monkeypatch.setattr(engine_module, "execute_reduce_task", spy_execute)
    cfg = SystemConfig(
        cluster=ClusterConfig(num_nodes=12, slots_per_node=3, heartbeat_period=0.2),
        bft=ClusterBFTConfig(f=1, replication=4, verification_points=2),
        seed=SEED,
    )
    plan = FaultPlan()
    plan.assign(BAD_NODE, StorageCorruptionBehavior(probability=1.0))
    controller = ClusterBFTController(cfg, fault_plan=plan, block_bytes=4096)
    controller.load_input(
        "twitter/followers", follower_edges(300, num_users=120, rng=random.Random(SEED))
    )
    result = controller.run_assured(TWO_HOP_ANALYSIS)
    outputs = hashlib.sha256()
    for path, records in sorted(result.outputs.items()):
        outputs.update(path.encode())
        for record in records:
            outputs.update(encode_record(record))
    verdict = {
        "assured": result.assured,
        "attempts": result.attempts,
        "latency": result.latency,
        "verdicts": [(o.sid, o.status, sorted(o.winners)) for o in result.outcomes],
        "quarantined": sorted(
            node
            for node in controller.cluster.node_ids()
            if controller.scheduler.is_quarantined(node)
        ),
        "outputs": outputs.hexdigest(),
    }
    return verdict, spilled


def test_rotted_spill_keeps_key_encodings_and_the_parent_verdict(monkeypatch):
    verdict, spilled = run_with_rotting_reducer(monkeypatch)
    assert verdict == PARENT_VERDICT
    assert spilled, "the rotting node ran no reduce task"
    tampered = 0
    for clean, received in spilled:
        assert len(received) == len(clean)
        for before, after in zip(clean, received):
            key, tag, record, key_as_tuple, key_bytes = after
            # Key, tag and the map side's encoding objects pass through.
            assert (key, tag) == before[:2]
            assert key_as_tuple is before[3] and key_bytes == before[4]
            as_tuple = key if isinstance(key, tuple) else (key,)
            assert (key_as_tuple, key_bytes) == (
                encode_value(as_tuple), len(encode_value(key))
            )
            if record is not before[2]:
                assert encode_record(record) != encode_record(before[2])
                tampered += 1
    # The reducer computed on tampered records: one per rotted spill.
    assert tampered == len(spilled)
