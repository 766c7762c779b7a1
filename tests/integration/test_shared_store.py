"""A STORE of a relation that other operators also consume.

Such a relation is materialised once, and its STORE compiles to a job
copying the materialised file.  That job must digest what it writes, or
the verifier never decides it and a fault-free assured run gives up
unassured.  The interpreter, the plain run and the assured run must
agree, and a fault-free assured run is assured at its first attempt.
"""

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import records_from_rows
from repro.core.controller import ClusterBFTController
from repro.core.request_handler import RequestHandler
from repro.dataflow.interpreter import interpret
from repro.dataflow.operators import VerifyOp
from repro.dataflow.piglatin import parse_script

from tests.dataflow.test_parser_fuzz import SCRIPTS as REPOSITORY_SCRIPTS

SHARED = {
    "stored-and-grouped": """
        A = LOAD 'in' AS (a:int, b:int);
        C = FOREACH A GENERATE a, b;
        G = GROUP C BY a;
        D = FOREACH G GENERATE group AS a, COUNT(C) AS n;
        STORE D INTO 'd';
        STORE C INTO 'c';
    """,
    "stored-twice": """
        A = LOAD 'in' AS (a:int, b:int);
        C = FILTER A BY b > 3;
        STORE C INTO 'c';
        STORE C INTO 'c2';
    """,
    "load-stored-and-filtered": """
        A = LOAD 'in' AS (a:int, b:int);
        STORE A INTO 'a';
        B = FILTER A BY a > 2;
        STORE B INTO 'b';
    """,
}

ROWS = [(i % 5, (i * 7) % 11) for i in range(200)]


def config(points):
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=12, slots_per_node=3, heartbeat_period=0.5),
        bft=ClusterBFTConfig(
            f=1, replication=4, verification_points=points, verifier_timeout=60.0
        ),
    )


def multisets(outputs):
    return {
        path: sorted((record.fields for record in records), key=repr)
        for path, records in outputs.items()
    }


@pytest.mark.parametrize("points", [0, 1])
@pytest.mark.parametrize("name", sorted(SHARED))
def test_interpreter_plain_and_assured_agree(name, points):
    script = SHARED[name]
    records = records_from_rows(ROWS)
    reference = multisets(interpret(parse_script(script), inputs={"in": records}))

    plain = ClusterBFTController(config(points), block_bytes=512)
    plain.load_input("in", records)
    assert multisets(plain.run_plain(script).outputs) == reference

    assured = ClusterBFTController(config(points), block_bytes=512)
    assured.load_input("in", records)
    result = assured.run_assured(script)
    assert result.assured and result.attempts == 1
    assert multisets(result.outputs) == reference


def is_copy_job(job):
    """A map-only job that re-reads materialised files and only
    digests them on their way to its output."""
    return job.is_map_only and all(
        branch.input_path.startswith("tmp/")
        and all(isinstance(stage.op, VerifyOp) for stage in branch.pipeline)
        for branch in job.branches
    )


@pytest.mark.parametrize("points", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(REPOSITORY_SCRIPTS))
def test_no_repository_script_compiles_to_a_copy_job(name, points):
    """The shape above is new: no script the repository ships has it,
    so none changes shape."""
    plan = parse_script(REPOSITORY_SCRIPTS[name])
    sizes = {path: 1 << 20 for path in plan.load_paths().values()}
    prepared = RequestHandler(config(points).bft).prepare(plan, sizes)
    assert not [job.name for job in prepared.job_graph.jobs if is_copy_job(job)]


def test_shared_relation_compiles_to_a_digesting_copy_job():
    plan = parse_script(SHARED["stored-and-grouped"])
    prepared = RequestHandler(config(0).bft).prepare(plan, {"in": 1 << 20})
    copies = [job for job in prepared.job_graph.jobs if is_copy_job(job)]
    assert [job.output_path for job in copies] == ["c"]
    assert [type(stage.op) for stage in copies[0].branches[0].pipeline] == [VerifyOp]
