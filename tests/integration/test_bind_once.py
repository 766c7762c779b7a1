"""Bind-once ratchet: field references are resolved when a job is
compiled, not once per record (DESIGN.md §21).

Counts ``Schema.index_of`` calls and ``Expr.bind`` calls (every node
class) over a whole fresh run — parse, compile, every replica of every
task, the verifier — at two input sizes.  Binding is per compiled job,
so both counts must be the same at 1 000 and at 2 000 edges.  A
per-record resolution path anywhere on the data path makes them grow
with the input (before binding, ``index_of`` grew by about two calls
per edge on the follower run).
"""

import pytest

from repro.common.config import ClusterBFTConfig, SystemConfig
from repro.common.rng import RngRegistry
from repro.core.controller import ClusterBFTController
from repro.core.journal import Journal
from repro.dataflow import expressions as ex
from repro.dataflow.schema import Schema
from repro.workloads.twitter import (
    FOLLOWER_ANALYSIS,
    TWO_HOP_ANALYSIS,
    follower_edges,
)

EDGES_PATH = "twitter/followers"
SIZES = (1000, 2000)
EXPR_CLASSES = (
    ex.Literal, ex.FieldRef, ex.BagProject, ex.BinOp, ex.UnaryOp, ex.IsNull, ex.FuncCall
)
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
def resolutions(monkeypatch):
    """``{"index_of": n, "bind": m}`` calls so far."""
    counts = {"index_of": 0, "bind": 0}

    def counting(original, name):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(Schema, "index_of", counting(Schema.index_of, "index_of"))
    for cls in EXPR_CLASSES:
        monkeypatch.setattr(cls, "bind", counting(vars(cls)["bind"], "bind"))
    return counts


def fresh_edges(num_edges):
    return follower_edges(
        num_edges, num_users=1000, rng=RngRegistry(7).stream(f"bind-once/{num_edges}")
    )


def follower_run(num_edges, _tmp_path):
    controller = ClusterBFTController(SystemConfig())
    controller.load_input(EDGES_PATH, fresh_edges(num_edges))
    return controller.run_assured(FOLLOWER_ANALYSIS)


def twohop_hardened_run(num_edges, tmp_path):
    edges = fresh_edges(num_edges)
    journal = Journal.create(
        str(tmp_path / f"run-{num_edges}.wal"),
        HARDENED,
        TWO_HOP_ANALYSIS,
        {EDGES_PATH: edges},
    )
    controller = ClusterBFTController(HARDENED, replicate_frontend=True, journal=journal)
    controller.load_input(EDGES_PATH, edges)
    try:
        return controller.run_assured(TWO_HOP_ANALYSIS)
    finally:
        journal.close()


@pytest.mark.parametrize("run", [follower_run, twohop_hardened_run])
def test_resolution_count_does_not_grow_with_input(run, resolutions, tmp_path):
    seen = []
    for num_edges in SIZES:
        before = dict(resolutions)
        result = run(num_edges, tmp_path)
        assert result.assured
        seen.append({name: resolutions[name] - before[name] for name in resolutions})
    assert seen[0] == seen[1], seen
    assert seen[0]["bind"] > 0
