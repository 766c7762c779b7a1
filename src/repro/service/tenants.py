"""Tenant traces: who submits what, when, under which quota.

A *tenant trace* is the service's whole input — a JSON document naming
the deployment shape, the cluster fault mix, and per-tenant job
streams.  Traces are pure data (absolute sim-time arrivals, named
workloads, literal quotas) so a service run is reproducible from its
trace and seed alone.  :func:`read_trace` reads a document in one walk
that builds the trace and collects every problem; :func:`parse_trace`
refuses a trace with any (fail-closed), and ``repro lint`` PLAN008
reports the same list (:func:`trace_problems`), so the linter flags
exactly what the service refuses.  The ``cluster``/``bft`` sections
give overrides of :data:`SERVICE_BASE` (keys in :data:`SETTINGS`); a
key that neither they nor :data:`KEYS` declare is a problem too.

Trace document shape::

    {
      "name": "three-tenants",
      "seed": 7,
      "cluster": {"nodes": 12, "slots": 3, "heartbeat": 0.4},
      "bft": {"f": 1, "replication": 4, "quarantine_threshold": 0.45},
      "faults": [{"kind": "flaky-commission", "node": 3,
                  "params": {"probability": 0.8}}],
      "tenants": [
        {"tenant": "alice", "faulty": false,
         "quota": {"max_concurrent": 2, "queue_limit": 4,
                   "slot_budget": 18},
         "jobs": [{"at": 0.0, "workload": "groupcount", "rows": 160}]}
      ]
    }

Workloads are named templates from :data:`WORKLOADS`; per-run input and
output paths are substituted at admission so tenants never share DFS
paths.  A ``faulty`` tenant models adversarial traffic — its
submissions are the ones that first exercise the cluster's faulty
replicas (and, in flood traces, violate quota); the service's *shared*
suspicion state quarantines the nodes its runs implicate, so honest
tenants arriving later never schedule onto them (paper Fig. 7,
amortized across tenants).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from repro.common.config import (
    ClusterBFTConfig,
    ClusterConfig,
    SystemConfig,
    overridden,
)
from repro.common.errors import ConfigError
from repro.common.records import Record, records_from_rows
from repro.common.rng import RngRegistry
from repro.faults.behaviors import FAULT_BEHAVIORS
from repro.faults.injection import FaultPlan


@dataclass(frozen=True)
class Workload:
    """A named script template; ``{input}``/``{output}`` are
    substituted with per-run DFS paths at admission."""

    name: str
    description: str
    template: str
    #: Number of MapReduce jobs the compiled template produces (what a
    #: slot budget should be sized against).
    jobs: int


WORKLOADS: dict[str, Workload] = {
    "groupcount": Workload(
        name="groupcount",
        description="filter + group-by + count (2 jobs, verifiable sink)",
        template="""
A = LOAD '{input}' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO '{output}';
""",
        jobs=2,
    ),
    "select": Workload(
        name="select",
        description="filter projection (1 map-only job)",
        template="""
A = LOAD '{input}' AS (k:int, v:int);
B = FILTER A BY v > 100;
STORE B INTO '{output}';
""",
        jobs=1,
    ),
    "distinctcount": Workload(
        name="distinctcount",
        description="distinct + group-by + count (heavier two-phase job)",
        template="""
A = LOAD '{input}' AS (k:int, v:int);
D = DISTINCT A;
G = GROUP D BY k;
C = FOREACH G GENERATE group AS k, COUNT(D) AS n;
STORE C INTO '{output}';
""",
        jobs=2,
    ),
}


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant (fail-closed: a zero
    ``max_concurrent`` admits nothing, ever)."""

    max_concurrent: int = 1
    #: Jobs that may wait in the tenant's FIFO queue; arrivals beyond
    #: it are rejected (bounded queue — open-loop traffic cannot grow
    #: service state without bound).
    queue_limit: int = 0
    #: Concurrent task-slot cap enforced by the fair-share scheduler
    #: (``None`` = unbounded).
    slot_budget: int | None = None


@dataclass(frozen=True)
class JobRequest:
    """One job arrival in the trace."""

    tenant: str
    index: int  # per-tenant submission ordinal
    at: float  # absolute sim-time arrival
    workload: str
    rows: int


@dataclass(frozen=True)
class TenantSpec:
    name: str
    quota: TenantQuota
    jobs: tuple[JobRequest, ...] = ()
    #: Adversarial-traffic marker (see module docstring).
    faulty: bool = False


#: The deployment every trace overrides: a 12-node cluster with fast
#: heartbeats, a verifier timeout sized to the service's small jobs and
#: the quarantine tier on.  Everything else is the config default.
SERVICE_BASE = SystemConfig(
    cluster=ClusterConfig(num_nodes=12, heartbeat_period=0.4),
    bft=ClusterBFTConfig(verifier_timeout=60.0, quarantine_threshold=0.45),
)


@dataclass(frozen=True)
class ServiceTrace:
    """A parsed, validated tenant trace."""

    name: str
    seed: int
    tenants: tuple[TenantSpec, ...]
    #: Deployment overrides of :data:`SERVICE_BASE`, by config field:
    #: ``ClusterConfig`` fields in ``cluster``, ``ClusterBFTConfig``
    #: fields in ``bft`` (the trace's :data:`SETTINGS` keys it gives).
    cluster: dict = field(default_factory=dict)
    bft: dict = field(default_factory=dict)
    #: (kind, node index, params) worker faults.
    faults: tuple[tuple[str, int, tuple[tuple[str, object], ...]], ...] = ()
    #: The raw JSON text the trace was parsed from — embedded verbatim
    #: in the ledger header so a ledger is self-describing and resume
    #: needs no side files.
    text: str = field(default="", compare=False)

    def system_config(self) -> SystemConfig:
        return overridden(SERVICE_BASE, self.cluster, self.bft, self.seed)

    def fault_plan(self) -> FaultPlan:
        """Fresh behaviours on every call: a crash behaviour counts the
        task starts of the one run it is assigned to."""
        plan = FaultPlan()
        for kind, node_index, params in self.faults:
            node_id = f"node_{node_index:04d}"
            plan.assign(node_id, FAULT_BEHAVIORS[kind](**dict(params)))
        return plan

    @property
    def faulty_tenants(self) -> frozenset[str]:
        """Tenants flagged ``faulty`` (see the module docstring)."""
        return frozenset(tenant.name for tenant in self.tenants if tenant.faulty)

    def requests(self) -> list[JobRequest]:
        """Every arrival, in deterministic service order: by time, then
        tenant name, then per-tenant ordinal."""
        out = [req for tenant in self.tenants for req in tenant.jobs]
        out.sort(key=lambda r: (r.at, r.tenant, r.index))
        return out

    def quotas(self) -> dict[str, TenantQuota]:
        return {tenant.name: tenant.quota for tenant in self.tenants}


def workload_records(seed: int, tenant: str, index: int, rows: int) -> list[Record]:
    """Deterministic input rows for one job, keyed by (seed, tenant,
    ordinal) so no two jobs — and no two seeds — share a stream."""
    rng = RngRegistry(seed).stream(f"service/workload/{tenant}/{index}")
    return records_from_rows(
        [(rng.randrange(8), rng.randrange(1000)) for _ in range(rows)]
    )


# ---------------------------------------------------------------------------
# reading (one walk, shared by parse_trace and `repro lint` PLAN008)
# ---------------------------------------------------------------------------


#: The numeric settings a trace may give, by section: key -> the config
#: field of that layer it overrides, and whether the value must be an
#: integer (else any finite number).  Absent keys keep
#: :data:`SERVICE_BASE`.
SETTINGS = {
    "cluster": {
        "nodes": ("num_nodes", True),
        "slots": ("slots_per_node", True),
        "heartbeat": ("heartbeat_period", False),
    },
    "bft": {
        "f": ("f", True),
        "replication": ("replication", True),
        "verifier_timeout": ("verifier_timeout", False),
        "suspicion_threshold": ("suspicion_threshold", False),
        "quarantine_threshold": ("quarantine_threshold", False),
        "suspicion_min_jobs": ("suspicion_min_jobs", True),
        "max_reruns": ("max_reruns", True),
    },
}


#: The keys the other objects of a trace may hold (``cluster`` and
#: ``bft`` hold those of :data:`SETTINGS`), by what the object is.
KEYS = {
    "trace": ("name", "seed", "cluster", "bft", "faults", "tenants"),
    "tenant": ("tenant", "faulty", "quota", "jobs"),
    "quota": tuple(f.name for f in fields(TenantQuota)),
    "job": ("at", "workload", "rows"),
    "fault": ("kind", "node", "params"),
}


def _undeclared(where: str, values: dict, keys, problems: list[str]) -> None:
    """Report each key of ``values`` that ``keys`` does not declare: a
    misspelt setting would otherwise fall back to its default unseen."""
    for key in sorted(set(values).difference(keys)):
        problems.append(
            f"{where}: unknown key {key!r} (known: {', '.join(sorted(keys))})"
        )


def _is_number(value: object, integer: bool = False) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) if integer else math.isfinite(value)


def read_trace(
    data: object, name: str = "trace", text: str = ""
) -> tuple[ServiceTrace | None, list[str]]:
    """Read a trace document in one walk: the trace it declares (``None``
    unless the problem list is empty) and every problem on the way, as
    human-readable strings.  :func:`parse_trace` refuses a trace with
    any, and ``repro lint`` PLAN008 reports the same list."""
    if not isinstance(data, dict):
        return None, ["trace document must be a JSON object"]
    entries = data.get("tenants")
    if not isinstance(entries, list) or not entries:
        return None, ["trace must declare a non-empty 'tenants' list"]
    problems: list[str] = []
    _undeclared("trace", data, KEYS["trace"], problems)
    trace_name = data.get("name", name)
    if not isinstance(trace_name, str):
        problems.append("'name' must be a string")
    seed = data.get("seed", SERVICE_BASE.seed)
    if not _is_number(seed, integer=True):
        problems.append(f"seed={seed!r} must be an integer")
    cluster, bft = (_read_settings(data, section, problems) for section in SETTINGS)
    nodes = None
    if not problems:
        try:
            nodes = overridden(SERVICE_BASE, cluster, bft, seed).cluster.num_nodes
        except ConfigError as exc:
            problems.append(str(exc))
    seen: set[str] = set()
    tenants = tuple(
        _read_tenant(position, entry, seen, problems)
        for position, entry in enumerate(entries)
    )
    faults = data.get("faults", [])
    if not isinstance(faults, list):
        problems.append("'faults' must be a list")
        faults = []
    faults = tuple(
        _read_fault(position, spec, nodes, problems)
        for position, spec in enumerate(faults)
    )
    if problems:
        return None, problems
    trace = ServiceTrace(
        trace_name, seed, tenants, cluster=cluster, bft=bft, faults=faults, text=text
    )
    return trace, []


def trace_problems(data: object) -> list[str]:
    """Every problem of a trace document (empty = valid): what
    :func:`parse_trace` refuses and ``repro lint`` PLAN008 reports."""
    return read_trace(data)[1]


def _read_settings(data: dict, section: str, problems: list[str]) -> dict:
    """The config overrides ``data[section]`` gives, by config field."""
    values = data.get(section, {})
    if not isinstance(values, dict):
        problems.append(f"'{section}' must be an object")
        return {}
    _undeclared(section, values, SETTINGS[section], problems)
    overrides = {}
    for key, (config_field, integer) in SETTINGS[section].items():
        if key not in values:
            continue
        value = overrides[config_field] = values[key]
        # A null quarantine threshold switches the quarantine tier off.
        if value is None and key == "quarantine_threshold":
            continue
        if not _is_number(value, integer):
            kind = "an integer" if integer else "a finite number"
            problems.append(f"{section}.{key}={value!r} must be {kind}")
    return overrides


def _read_tenant(
    position: int, entry: object, seen: set[str], problems: list[str]
) -> TenantSpec | None:
    """``tenants[position]``: its name (added to ``seen``), its quota
    and each of its jobs."""
    if not isinstance(entry, dict):
        problems.append(f"tenants[{position}] must be an object")
        return None
    name = entry.get("tenant")
    label = name if isinstance(name, str) and name else f"tenants[{position}]"
    _undeclared(f"tenant {label}", entry, KEYS["tenant"], problems)
    if not isinstance(name, str) or not name:
        problems.append(f"tenants[{position}] missing 'tenant' name")
    elif name in seen:
        problems.append(f"duplicate tenant {name!r}")
    else:
        seen.add(name)
    faulty = entry.get("faulty", False)
    if not isinstance(faulty, bool):
        problems.append(f"tenant {label}: faulty={faulty!r} must be true or false")
    quota = entry.get("quota", {})
    if not isinstance(quota, dict):
        problems.append(f"tenant {label}: 'quota' must be an object")
        quota = {}
    _undeclared(f"tenant {label}: quota", quota, KEYS["quota"], problems)
    max_concurrent = quota.get("max_concurrent", TenantQuota.max_concurrent)
    if not _is_number(max_concurrent, integer=True) or max_concurrent <= 0:
        problems.append(
            f"tenant {label}: quota max_concurrent={max_concurrent!r} "
            "admits nothing (fail-closed admission rejects every job)"
        )
    queue_limit = quota.get("queue_limit", TenantQuota.queue_limit)
    if not _is_number(queue_limit, integer=True) or queue_limit < 0:
        problems.append(
            f"tenant {label}: queue_limit={queue_limit!r} must be an "
            "integer >= 0"
        )
    slot_budget = quota.get("slot_budget", TenantQuota.slot_budget)
    if slot_budget is not None and (
        not _is_number(slot_budget, integer=True) or slot_budget <= 0
    ):
        problems.append(
            f"tenant {label}: slot_budget={slot_budget!r} must be a "
            "positive integer or omitted"
        )
    jobs = entry.get("jobs", [])
    if not isinstance(jobs, list):
        problems.append(f"tenant {label}: 'jobs' must be a list")
        jobs = []
    requests = []
    for index, job in enumerate(jobs):
        request = _read_job(label, index, job, requests, problems)
        if request is not None:
            requests.append(request)
    return TenantSpec(
        name=label,
        quota=TenantQuota(max_concurrent, queue_limit, slot_budget),
        jobs=tuple(requests),
        faulty=faulty,
    )


def _read_job(
    label: str,
    index: int,
    job: object,
    earlier: list[JobRequest],
    problems: list[str],
) -> JobRequest | None:
    """Tenant ``label``'s ``jobs[index]``, which may not arrive before
    the ``earlier`` jobs of the tenant."""
    where = f"tenant {label}: jobs[{index}]"
    if not isinstance(job, dict):
        problems.append(f"{where} must be an object")
        return None
    _undeclared(where, job, KEYS["job"], problems)
    workload = job.get("workload")
    if not isinstance(workload, str) or workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        problems.append(
            f"{where} references unknown workload {workload!r} (known: {known})"
        )
    at = job.get("at", 0.0)
    last_at = earlier[-1].at if earlier else None
    if not _is_number(at) or at < 0:
        problems.append(f"{where} arrival at={at!r} must be a number >= 0")
        return None
    if last_at is not None and at < last_at:
        problems.append(
            f"{where} arrives at {at} before its predecessor at {last_at} "
            "(per-tenant arrivals must be non-decreasing — FIFO queues "
            "assume it)"
        )
        return None
    rows = job.get("rows", 160)
    if not _is_number(rows, integer=True) or rows <= 0:
        problems.append(f"{where} rows={rows!r} must be a positive integer")
    return JobRequest(
        tenant=label, index=index, at=float(at), workload=workload, rows=rows
    )


def _read_fault(
    position: int, spec: object, nodes: int | None, problems: list[str]
) -> tuple | None:
    """``faults[position]`` as (kind, node, params); ``nodes`` is the
    cluster size when the deployment resolved."""
    if not isinstance(spec, dict):
        problems.append(f"faults[{position}] must be an object")
        return None
    _undeclared(f"faults[{position}]", spec, KEYS["fault"], problems)
    kind = spec.get("kind")
    behavior = FAULT_BEHAVIORS.get(kind) if isinstance(kind, str) else None
    if behavior is None:
        known = ", ".join(sorted(FAULT_BEHAVIORS))
        problems.append(
            f"faults[{position}] unknown kind {kind!r} (known: {known})"
        )
    node = spec.get("node")
    if not _is_number(node, integer=True) or node < 0:
        problems.append(
            f"faults[{position}] node={node!r} must be an integer >= 0"
        )
    elif nodes is not None and node >= nodes:
        problems.append(
            f"faults[{position}] {kind!r} targets node {node} but the "
            f"cluster has {nodes} nodes"
        )
    params = spec.get("params") or {}
    if not isinstance(params, dict):
        problems.append(f"faults[{position}] 'params' must be an object")
        return None
    takes = {f.name for f in fields(behavior)} if behavior else set(params)
    for key, value in params.items():
        if key not in takes:
            problems.append(
                f"faults[{position}] {kind!r} takes no param {key!r} "
                f"(takes: {', '.join(sorted(takes))})"
            )
        elif not _is_number(value):
            problems.append(
                f"faults[{position}] param {key}={value!r} must be a "
                "finite number"
            )
    return kind, node, tuple(sorted(params.items()))


def parse_trace(text: str, name: str = "trace") -> ServiceTrace:
    """Parse and validate a trace document (fail-closed).

    Raises :class:`~repro.common.errors.ConfigError` naming the
    problems of a malformed or unsafe trace — a service must never
    start admitting under a quota or deployment it cannot enforce.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"trace {name}: not valid JSON: {exc}")
    trace, problems = read_trace(data, name, text)
    if problems:
        raise ConfigError(
            f"trace {name}: invalid ({'; '.join(problems[:4])}"
            + (f"; +{len(problems) - 4} more)" if len(problems) > 4 else ")")
        )
    return trace
