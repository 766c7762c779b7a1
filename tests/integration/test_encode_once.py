"""Encode-count ratchet: a record or reduce key is canonically encoded
once, not once per use (DESIGN.md §17), and a reduce key only on the map
side (§22).

Counts top-level ``encode_value`` calls through every module-level
binding of the name — the ones ``benchmarks/perf/tracing.py::
ENCODE_TARGETS`` counts as ``common.encode.calls`` — on two small runs
over freshly built input ``Record``s, so nothing is cached beforehand.
The counts are exact and repeat; the ceilings sit about 10 % above them.
At these sizes reduce keys dominate, so the ratios are higher than the
full-size benchmark's.
"""

import importlib

import pytest

from repro.common.config import ClusterBFTConfig, SystemConfig
from repro.common.rng import RngRegistry
from repro.core.controller import ClusterBFTController
from repro.core.journal import Journal
from repro.workloads.twitter import (
    FOLLOWER_ANALYSIS,
    TWO_HOP_ANALYSIS,
    follower_edges,
)

ENCODE_MODULES = ("repro.common.records", "repro.mapreduce.runtime", "repro.core.journal")
EDGES_PATH = "twitter/followers"
#: Everything the paper can switch on (the benchmark's ``twohop_hardened``).
HARDENED = SystemConfig(
    bft=ClusterBFTConfig(
        f=1,
        replication=4,
        verification_points=2,
        digest_chunk_records=500,
        checkpoints=True,
    )
)


@pytest.fixture
def encode_calls(monkeypatch):
    """``[n]``: top-level ``encode_value`` calls so far (one per record or
    key encoded, not the encoder's own recursion)."""
    calls, depth = [0], [0]

    def counting(original):
        def wrapper(value):
            if depth[0]:
                return original(value)
            calls[0] += 1
            depth[0] = 1
            try:
                return original(value)
            finally:
                depth[0] = 0

        return wrapper

    for name in ENCODE_MODULES:
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "encode_value", counting(module.encode_value))
    return calls


@pytest.fixture
def reduce_key_encodes(monkeypatch):
    """``[n]``: ``encode_value`` calls made through the runtime's binding —
    the one reduce keys are encoded through — while a reduce task runs."""
    runtime = importlib.import_module("repro.mapreduce.runtime")
    engine = importlib.import_module("repro.mapreduce.engine")
    encode, execute = runtime.encode_value, engine.execute_reduce_task
    calls, reducing = [0], [False]

    def counting(value):
        calls[0] += reducing[0]
        return encode(value)

    def reduce_task(*args):
        reducing[0] = True
        try:
            return execute(*args)
        finally:
            reducing[0] = False

    monkeypatch.setattr(runtime, "encode_value", counting)
    monkeypatch.setattr(engine, "execute_reduce_task", reduce_task)
    return calls


def fresh_edges(num_edges):
    return follower_edges(
        num_edges, num_users=1000, rng=RngRegistry(7).stream(f"encode-once/{num_edges}")
    )


def test_twohop_hardened_encodes_per_edge(encode_calls, reduce_key_encodes, tmp_path):
    edges = fresh_edges(200)
    journal = Journal.create(
        str(tmp_path / "run.wal"), HARDENED, TWO_HOP_ANALYSIS, {EDGES_PATH: edges}
    )
    controller = ClusterBFTController(HARDENED, replicate_frontend=True, journal=journal)
    controller.load_input(EDGES_PATH, edges)
    result = controller.run_assured(TWO_HOP_ANALYSIS)
    journal.close()
    assert result.assured
    # 501 calls = 2.505 per edge; 1 072 = 5.36 while keys were encoded
    # on both sides and per record, 3 668 = 18.34 before the cache.
    assert encode_calls[0] / len(edges) <= 2.75
    assert reduce_key_encodes[0] == 0


def test_follower_assured_encodes_per_edge(encode_calls, reduce_key_encodes):
    edges = fresh_edges(2000)
    controller = ClusterBFTController(SystemConfig())
    controller.load_input(EDGES_PATH, edges)
    result = controller.run_assured(FOLLOWER_ANALYSIS)
    assert result.assured
    # 3 239 calls = 1.62 per edge; 3 652 = 1.83 while keys were encoded
    # on both sides, 9 434 = 4.72 before the cache.
    assert encode_calls[0] / len(edges) <= 1.8
    assert reduce_key_encodes[0] == 0
