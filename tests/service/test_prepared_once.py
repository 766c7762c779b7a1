"""A service template prepared once and rebased ≡ one prepared per run.

``ClusterBFTService.prepare`` prepares each (template, compile options)
key on its first run's paths and rebases that script onto every later
run's paths (DESIGN.md §26).  The rebased script must be the one a
fresh ``prepare`` at the later run's paths builds, and must run the
same.
"""

import json

import pytest

from repro.common.records import records_from_rows
from repro.compiler.mr_compiler import CompileOptions
from repro.core import graph_analyzer
from repro.dataflow.piglatin import parse_script
from repro.service.loop import ClusterBFTService
from repro.service.tenants import WORKLOADS, parse_trace

ROWS = records_from_rows([(k % 5, 90 + 7 * k) for k in range(24)])
REDUCERS = (1, 2, 4)


def deployment(reducers):
    """A fault-free service whose compile options give ``reducers``."""
    doc = {
        "name": "prepared-once",
        "seed": 3,
        "cluster": {"nodes": 2 * reducers, "slots": 2, "heartbeat": 0.4},
        "bft": {"f": 1, "replication": 2},
        "tenants": [{"tenant": "t", "jobs": [{"at": 0.0, "workload": "select"}]}],
    }
    service = ClusterBFTService(parse_trace(json.dumps(doc)))
    assert service.controller._compile_options().num_reducers == reducers
    return service


def paths(run):
    return f"__svc/{run}/in", f"__svc/{run}/out"


def through_service(service, workload, run):
    """What a run of ``workload`` gets from the service's table."""
    input_path, output_path = paths(run)
    service.controller.load_input(input_path, ROWS)
    return service.prepare(workload, input_path, output_path)


def prepared_fresh(service, workload, run):
    """What a run got before the table: its own ``prepare``."""
    input_path, output_path = paths(run)
    service.controller.load_input(input_path, ROWS)
    script = WORKLOADS[workload].template.format(input=input_path, output=output_path)
    return service.controller.prepare(script)


def plan_print(plan):
    return [
        (vid, plan.inputs(vid), op.describe(), op.alias, op.source_line)
        for vid in plan.topological_order()
        for op in [plan.op(vid)]
    ]


def stage_print(pipeline):
    return [
        (type(stage.op).__name__, getattr(stage.op, "vp_id", None),
         getattr(stage.op, "chunk_records", None))
        for stage in pipeline
    ]


def fingerprint(prepared):
    jobs = [
        (
            job.describe(),
            job.num_reducers,
            repr(job.combiner),
            job.output_is_temp,
            [stage_print(branch.pipeline) for branch in job.branches],
            stage_print(job.reduce_pipeline),
            stage_print(job.post_limit_pipeline),
        )
        for job in prepared.job_graph.jobs
    ]
    points = [
        (p.vp_id, p.source_vertex, p.verify_vertex, p.is_output)
        for p in prepared.instrumented.points
    ]
    return {
        "plan": plan_print(prepared.plan),
        "instrumented": plan_print(prepared.instrumented.plan),
        "points": points,
        "marked": list(prepared.marked_vertices),
        "scores": list(prepared.marker_scores),
        "jobs": jobs,
    }


def run_print(prepared, reducers):
    controller = deployment(reducers).controller
    controller.load_input(paths("b")[0], ROWS)
    result = controller._run_assured(prepared)
    assert result.assured
    return result.outputs, result.latency, result.attempts


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rebased_template_is_the_one_prepared_on_its_paths(workload):
    for reducers in REDUCERS:
        service = deployment(reducers)
        first = through_service(service, workload, "a")
        rebased = through_service(service, workload, "b")
        fresh = prepared_fresh(service, workload, "b")
        assert fingerprint(rebased) == fingerprint(fresh)
        assert fingerprint(first) != fingerprint(rebased)  # the paths moved
        # Path-independent parts are shared, not generated again.
        for job, first_job in zip(rebased.job_graph.jobs, first.job_graph.jobs):
            for branch, first_branch in zip(job.branches, first_job.branches):
                assert branch.run is first_branch.run
        assert run_print(rebased, reducers) == run_print(fresh, reducers)


def test_the_key_holds_the_compile_options(monkeypatch):
    """One deployment whose compile options change between runs must not
    hand a run the script compiled under the old options."""
    service = deployment(4)
    for run, reducers in enumerate(REDUCERS):
        monkeypatch.setattr(
            service.controller, "_compile_options",
            lambda r=reducers: CompileOptions(num_reducers=r),
        )
        for workload in sorted(WORKLOADS):
            got = through_service(service, workload, f"r{run}")
            want = prepared_fresh(service, workload, f"r{run}")
            assert fingerprint(got)["jobs"] == fingerprint(want)["jobs"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_marker_ratios_do_not_depend_on_input_size(workload):
    """Why input size is not in the key: one LOAD, so its ratio is 1 for
    any positive size (a trace rejects ``rows <= 0``)."""
    plan = parse_script(WORKLOADS[workload].template.format(input="in", output="out"))
    assert list(plan.load_paths().values()) == ["in"]
    small = graph_analyzer.input_ratios(plan, {"in": 1})
    assert graph_analyzer.input_ratios(plan, {"in": 10**9}) == small


def test_a_service_prepares_each_key_once(monkeypatch):
    service = deployment(2)
    calls = []
    prepare = service.controller.prepare
    monkeypatch.setattr(
        service.controller, "prepare", lambda script: calls.append(script) or prepare(script)
    )
    for run in range(3):
        for workload in sorted(WORKLOADS):
            through_service(service, workload, f"{workload}{run}")
    assert len(calls) == len(WORKLOADS)
