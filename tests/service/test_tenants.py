"""Tenant-trace schema: parsing, fail-closed validation, determinism."""

import json

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.core.journal import config_to_json
from repro.service.tenants import (
    SETTINGS,
    WORKLOADS,
    parse_trace,
    trace_problems,
    workload_records,
)


def make_doc(**overrides):
    doc = {
        "name": "t",
        "seed": 5,
        "cluster": {"nodes": 8, "slots": 3, "heartbeat": 0.4},
        "faults": [{"kind": "commission", "node": 1}],
        "tenants": [
            {
                "tenant": "alice",
                "quota": {"max_concurrent": 2, "queue_limit": 1},
                "jobs": [
                    {"at": 0.0, "workload": "select", "rows": 10},
                    {"at": 1.0, "workload": "groupcount", "rows": 12},
                ],
            },
            {
                "tenant": "bob",
                "faulty": True,
                "quota": {"max_concurrent": 1},
                "jobs": [{"at": 0.5, "workload": "select", "rows": 10}],
            },
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_valid_trace():
    trace = parse_trace(json.dumps(make_doc()), name="t")
    assert trace.seed == 5
    assert trace.system_config().cluster.num_nodes == 8
    assert [t.name for t in trace.tenants] == ["alice", "bob"]
    assert trace.tenants[1].faulty
    assert trace.quotas()["alice"].max_concurrent == 2
    assert trace.faults == (("commission", 1, ()),)
    assert trace.text  # raw JSON embedded for the ledger header


def test_requests_ordered_by_time_then_tenant():
    trace = parse_trace(json.dumps(make_doc()))
    assert [(r.tenant, r.index) for r in trace.requests()] == [
        ("alice", 0),
        ("bob", 0),
        ("alice", 1),
    ]


def test_fault_plan_targets_named_nodes():
    trace = parse_trace(json.dumps(make_doc()))
    plan = trace.fault_plan()
    assert plan.behavior_for("node_0001") is not None


def test_zero_quota_is_fail_closed():
    doc = make_doc()
    doc["tenants"][0]["quota"]["max_concurrent"] = 0
    problems = trace_problems(doc)
    assert any("admits nothing" in p for p in problems)
    with pytest.raises(ConfigError):
        parse_trace(json.dumps(doc))


def test_unknown_workload_rejected():
    doc = make_doc()
    doc["tenants"][0]["jobs"][0]["workload"] = "nosuch"
    assert any("unknown workload" in p for p in trace_problems(doc))
    with pytest.raises(ConfigError):
        parse_trace(json.dumps(doc))


def test_duplicate_tenant_rejected():
    doc = make_doc()
    doc["tenants"][1]["tenant"] = "alice"
    assert any("duplicate tenant" in p for p in trace_problems(doc))


def test_decreasing_arrivals_rejected():
    doc = make_doc()
    doc["tenants"][0]["jobs"][1]["at"] = -0.5
    assert trace_problems(doc)
    doc = make_doc()
    doc["tenants"][0]["jobs"][1]["at"] = 0.0
    doc["tenants"][0]["jobs"][0]["at"] = 1.0
    assert any("non-decreasing" in p for p in trace_problems(doc))


def test_unknown_fault_kind_rejected():
    doc = make_doc(faults=[{"kind": "gremlin", "node": 0}])
    assert any("unknown kind" in p for p in trace_problems(doc))


def test_fault_node_out_of_cluster_rejected():
    doc = make_doc(faults=[{"kind": "commission", "node": 99}])
    with pytest.raises(ConfigError, match="targets node 99"):
        parse_trace(json.dumps(doc))


def test_empty_and_non_object_traces_rejected():
    assert trace_problems([]) == ["trace document must be a JSON object"]
    assert trace_problems({"tenants": []})
    with pytest.raises(ConfigError):
        parse_trace("{not json")


def test_workload_records_deterministic_and_disjoint():
    a1 = workload_records(7, "alice", 0, 50)
    a2 = workload_records(7, "alice", 0, 50)
    b = workload_records(7, "bob", 0, 50)
    other_seed = workload_records(8, "alice", 0, 50)
    assert a1 == a2
    assert a1 != b
    assert a1 != other_seed


def test_workload_templates_are_parseable_plans():
    from repro.dataflow.piglatin import parse_script

    for workload in WORKLOADS.values():
        script = workload.template.format(input="in", output="out")
        plan = parse_script(script)
        assert plan.sinks()


def explicit_config(
    seed,
    num_nodes=12,
    slots_per_node=3,
    heartbeat_period=0.4,
    f=1,
    replication=4,
    verifier_timeout=60.0,
    suspicion_threshold=0.95,
    quarantine_threshold=0.45,
    suspicion_min_jobs=3,
    max_reruns=3,
):
    """A trace's deployment with every field and default spelled out,
    as traces built it before they stated overrides of SERVICE_BASE."""
    return SystemConfig(
        cluster=ClusterConfig(
            num_nodes=num_nodes,
            slots_per_node=slots_per_node,
            heartbeat_period=heartbeat_period,
        ),
        bft=ClusterBFTConfig(
            f=f,
            replication=replication,
            verifier_timeout=verifier_timeout,
            suspicion_threshold=suspicion_threshold,
            quarantine_threshold=quarantine_threshold,
            suspicion_min_jobs=suspicion_min_jobs,
            max_reruns=max_reruns,
        ),
        seed=seed,
    ).validate()


EVERY_SETTING = {
    "cluster": {"nodes": 9, "slots": 2, "heartbeat": 1},
    "bft": {
        "f": 2,
        "replication": 7,
        "verifier_timeout": 30,
        "suspicion_threshold": 0.9,
        "quarantine_threshold": None,
        "suspicion_min_jobs": 5,
        "max_reruns": 1,
    },
}


@pytest.mark.parametrize("settings", [{}, EVERY_SETTING], ids=["none", "every"])
def test_system_config_equals_the_explicit_constructor(settings):
    doc = make_doc(**{"cluster": {}, "bft": {}, **settings})
    trace = parse_trace(json.dumps(doc))
    fields = {
        config_field: doc[section][key]
        for section, keys in SETTINGS.items()
        for key, (config_field, _integer) in keys.items()
        if key in doc[section]
    }
    if settings:
        assert len(fields) == sum(len(keys) for keys in SETTINGS.values())
    expected = explicit_config(5, **fields)
    assert trace.system_config() == expected
    # Same values of the same JSON types, as a journal header holds them.
    assert json.dumps(config_to_json(trace.system_config())) == json.dumps(
        config_to_json(expected)
    )
