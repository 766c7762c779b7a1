"""Bind-once ratchet: field references are resolved, and stages
compiled, when a job is compiled, not once per record (DESIGN.md §21,
§23).

Counts ``Schema.index_of`` calls, ``emit`` calls (every expression node
class) and compilations of generated source over a whole fresh run —
parse, compile, every replica of every task, the verifier — at two
input sizes, each with an empty code table.  Binding is per compiled
job, so all three counts must be the same at 1 000 and at 2 000 edges.
A per-record resolution or compilation path anywhere on the data path
makes them grow with the input (before binding, ``index_of`` grew by
about two calls per edge on the follower run).

A run of ``examples/tenants.json`` through the service binds many jobs
from three templates and compiles each distinct stage source once.

Since map branches are fused (DESIGN.md §24) each map branch is one
generated function: the map side binds no stage and no key on its own.
"""

import os

import pytest

from repro.common.config import ClusterBFTConfig, SystemConfig
from repro.common.rng import RngRegistry
from repro.compiler.jobspec import JobSpec, MapBranch
from repro.core.controller import ClusterBFTController
from repro.core.journal import Journal
from repro.dataflow import expressions as ex
from repro.dataflow.operators import BlockingOperator
from repro.dataflow.schema import Schema
from repro.service.loop import run_trace
from repro.service.tenants import parse_trace
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
TENANTS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "tenants.json"
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


#: ``emit`` calls per compiled job over a run of ``examples/tenants.json``
#: with the code before map branches were fused: 140 over 16 jobs.
PARENT_EMITS_PER_JOB = 140 / 16


@pytest.fixture
def resolutions(monkeypatch):
    """``{"index_of": n, "emit": m, "compile": c}`` calls so far, and of
    ``Emitter.function`` ("function"), ``MapBranch.bind`` ("branch"),
    ``BlockingOperator.bind_key`` ("key") and ``JobSpec`` builds ("job"),
    with a code table of the test's own (``ex.CODE``)."""
    counts = dict.fromkeys(("index_of", "emit", "compile", "function", "branch", "key", "job"), 0)

    def counting(original, name):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(Schema, "index_of", counting(Schema.index_of, "index_of"))
    for cls in EXPR_CLASSES:
        monkeypatch.setattr(cls, "emit", counting(vars(cls)["emit"], "emit"))
    monkeypatch.setattr(ex, "compile", counting(compile, "compile"), raising=False)
    monkeypatch.setattr(ex, "CODE", {})
    for owner, attribute, name in (
        (ex.Emitter, "function", "function"),
        (MapBranch, "bind", "branch"),
        (BlockingOperator, "bind_key", "key"),
        (JobSpec, "__post_init__", "job"),
    ):
        monkeypatch.setattr(owner, attribute, counting(getattr(owner, attribute), name))
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
        ex.CODE.clear()
        before = dict(resolutions)
        result = run(num_edges, tmp_path)
        assert result.assured
        seen.append({name: resolutions[name] - before[name] for name in resolutions})
    assert seen[0] == seen[1], seen
    assert seen[0]["emit"] > 0
    assert seen[0]["compile"] == len(ex.CODE) > 0


def test_service_compiles_each_stage_source_once(resolutions, tmp_path):
    with open(TENANTS) as handle:
        text = handle.read()
    result = run_trace(parse_trace(text, name="tenants.json"), str(tmp_path / "a.ledger"))
    compiled = resolutions["compile"]
    assert compiled == len(ex.CODE)
    # Every admitted job binds several stages; the distinct sources are
    # a handful, whatever the number of jobs.
    assert 0 < compiled < len(result.runs)
    run_trace(parse_trace(text, name="tenants.json"), str(tmp_path / "b.ledger"))
    assert resolutions["compile"] == compiled


def test_each_map_branch_is_one_generated_function(resolutions, tmp_path):
    # The follower script's FILTER, GROUP key and COUNT combiner are all
    # map side, and its reduce side binds nothing: every function the run
    # generates is a map branch, and no key is bound on its own.
    assert follower_run(1000, tmp_path).assured
    assert resolutions["key"] == 0
    assert resolutions["function"] == resolutions["branch"] > 0


def test_service_emits_no_more_per_job_than_before_fusion(resolutions, tmp_path):
    with open(TENANTS) as handle:
        text = handle.read()
    run_trace(parse_trace(text, name="tenants.json"), str(tmp_path / "a.ledger"))
    assert resolutions["job"] > 0
    assert resolutions["emit"] / resolutions["job"] <= PARENT_EMITS_PER_JOB
