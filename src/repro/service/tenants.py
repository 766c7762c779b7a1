"""Tenant traces: who submits what, when, under which quota.

A *tenant trace* is the service's whole input — a JSON document naming
the deployment shape, the cluster fault mix, and per-tenant job
streams.  Traces are pure data (absolute sim-time arrivals, named
workloads, literal quotas) so a service run is reproducible from its
trace and seed alone, and so ``repro lint`` can check admission
configuration statically (PLAN008) with the same validation the
service applies fail-closed at load time.

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
from dataclasses import dataclass, field

from repro.common.config import (
    ClusterBFTConfig,
    ClusterConfig,
    SystemConfig,
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


@dataclass(frozen=True)
class ServiceTrace:
    """A parsed, validated tenant trace."""

    name: str
    seed: int
    tenants: tuple[TenantSpec, ...]
    num_nodes: int = 12
    slots_per_node: int = 3
    heartbeat_period: float = 0.4
    f: int = 1
    replication: int = 4
    verifier_timeout: float = 60.0
    suspicion_threshold: float = 0.95
    quarantine_threshold: float | None = 0.45
    suspicion_min_jobs: int = 3
    max_reruns: int = 3
    #: (kind, node index, params) worker faults.
    faults: tuple[tuple[str, int, tuple[tuple[str, object], ...]], ...] = ()
    #: The raw JSON text the trace was parsed from — embedded verbatim
    #: in the ledger header so a ledger is self-describing and resume
    #: needs no side files.
    text: str = field(default="", compare=False)

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            cluster=ClusterConfig(
                num_nodes=self.num_nodes,
                slots_per_node=self.slots_per_node,
                heartbeat_period=self.heartbeat_period,
            ),
            bft=ClusterBFTConfig(
                f=self.f,
                replication=self.replication,
                verifier_timeout=self.verifier_timeout,
                suspicion_threshold=self.suspicion_threshold,
                quarantine_threshold=self.quarantine_threshold,
                suspicion_min_jobs=self.suspicion_min_jobs,
                max_reruns=self.max_reruns,
            ),
            seed=self.seed,
        ).validate()

    def fault_plan(self) -> FaultPlan:
        plan = FaultPlan()
        for kind, node_index, params in self.faults:
            node_id = f"node_{node_index:04d}"
            plan.assign(node_id, FAULT_BEHAVIORS[kind](**dict(params)))
        return plan

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
# validation (shared by parse_trace and `repro lint` PLAN008)
# ---------------------------------------------------------------------------


#: The numeric settings a trace may give, by section: key -> the
#: :class:`ServiceTrace` field it sets, and whether the value must be an
#: integer (else any finite number).  Absent keys keep the field default.
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


def _is_number(value: object, integer: bool = False) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) if integer else math.isfinite(value)


def _settings_problems(data: dict) -> list[str]:
    problems = []
    if not isinstance(data.get("name", ""), str):
        problems.append("'name' must be a string")
    if not _is_number(data.get("seed", 0), integer=True):
        problems.append(f"seed={data.get('seed')!r} must be an integer")
    for section, keys in SETTINGS.items():
        values = data.get(section, {})
        if not isinstance(values, dict):
            problems.append(f"'{section}' must be an object")
            continue
        for key, (_, integer) in keys.items():
            value = values.get(key, 0)
            # A null quarantine threshold switches the quarantine tier off.
            if value is None and key == "quarantine_threshold":
                continue
            if not _is_number(value, integer):
                kind = "an integer" if integer else "a finite number"
                problems.append(f"{section}.{key}={value!r} must be {kind}")
    return problems


def trace_problems(data: object) -> list[str]:
    """Structural/admission-config problems of a trace document.

    Returns human-readable problem strings (empty = valid).  This is
    the single source of truth: :func:`parse_trace` refuses any trace
    with problems (fail-closed), and ``repro lint`` PLAN008 reports the
    same list statically.
    """
    if not isinstance(data, dict):
        return ["trace document must be a JSON object"]
    tenants = data.get("tenants")
    if not isinstance(tenants, list) or not tenants:
        return ["trace must declare a non-empty 'tenants' list"]
    problems = _settings_problems(data)
    seen: set[str] = set()
    for position, entry in enumerate(tenants):
        problems.extend(_tenant_problems(position, entry, seen))
    faults = data.get("faults", [])
    if not isinstance(faults, list):
        problems.append("'faults' must be a list")
        faults = []
    for position, spec in enumerate(faults):
        problems.extend(_fault_problems(position, spec))
    return problems


def _tenant_problems(position: int, entry: object, seen: set[str]) -> list[str]:
    """Problems of ``tenants[position]``: its name (added to ``seen``),
    its quota and each of its jobs."""
    if not isinstance(entry, dict):
        return [f"tenants[{position}] must be an object"]
    problems: list[str] = []
    name = entry.get("tenant")
    label = name if isinstance(name, str) and name else f"tenants[{position}]"
    if not isinstance(name, str) or not name:
        problems.append(f"tenants[{position}] missing 'tenant' name")
    elif name in seen:
        problems.append(f"duplicate tenant {name!r}")
    else:
        seen.add(name)
    quota = entry.get("quota", {})
    if not isinstance(quota, dict):
        problems.append(f"tenant {label}: 'quota' must be an object")
        quota = {}
    max_concurrent = quota.get("max_concurrent", 1)
    if not isinstance(max_concurrent, int) or max_concurrent <= 0:
        problems.append(
            f"tenant {label}: quota max_concurrent={max_concurrent!r} "
            "admits nothing (fail-closed admission rejects every job)"
        )
    queue_limit = quota.get("queue_limit", 0)
    if not isinstance(queue_limit, int) or queue_limit < 0:
        problems.append(
            f"tenant {label}: queue_limit={queue_limit!r} must be an "
            "integer >= 0"
        )
    slot_budget = quota.get("slot_budget")
    if slot_budget is not None and (
        not isinstance(slot_budget, int) or slot_budget <= 0
    ):
        problems.append(
            f"tenant {label}: slot_budget={slot_budget!r} must be a "
            "positive integer or omitted"
        )
    jobs = entry.get("jobs", [])
    if not isinstance(jobs, list):
        problems.append(f"tenant {label}: 'jobs' must be a list")
        jobs = []
    last_at = None
    for job_position, job in enumerate(jobs):
        job_problems, last_at = _job_problems(label, job_position, job, last_at)
        problems.extend(job_problems)
    return problems


def _job_problems(
    label: str, position: int, job: object, last_at: float | None
) -> tuple[list[str], float | None]:
    """Problems of tenant ``label``'s ``jobs[position]``, and the arrival
    time the tenant's next job may not precede."""
    where = f"tenant {label}: jobs[{position}]"
    if not isinstance(job, dict):
        return [f"{where} must be an object"], last_at
    problems: list[str] = []
    workload = job.get("workload")
    if not isinstance(workload, str) or workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        problems.append(
            f"{where} references unknown workload {workload!r} (known: {known})"
        )
    at = job.get("at", 0.0)
    if not _is_number(at) or at < 0:
        problems.append(f"{where} arrival at={at!r} must be a number >= 0")
    elif last_at is not None and at < last_at:
        problems.append(
            f"{where} arrives at {at} before its predecessor at {last_at} "
            "(per-tenant arrivals must be non-decreasing — FIFO queues "
            "assume it)"
        )
    else:
        last_at = at
    rows = job.get("rows", 160)
    if not isinstance(rows, int) or rows <= 0:
        problems.append(f"{where} rows={rows!r} must be a positive integer")
    return problems, last_at


def _fault_problems(position: int, spec: object) -> list[str]:
    """Problems of ``faults[position]``."""
    if not isinstance(spec, dict):
        return [f"faults[{position}] must be an object"]
    problems: list[str] = []
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in FAULT_BEHAVIORS:
        known = ", ".join(sorted(FAULT_BEHAVIORS))
        problems.append(
            f"faults[{position}] unknown kind {kind!r} (known: {known})"
        )
    node = spec.get("node")
    if not isinstance(node, int) or node < 0:
        problems.append(
            f"faults[{position}] node={node!r} must be an integer >= 0"
        )
    if not isinstance(spec.get("params") or {}, dict):
        problems.append(f"faults[{position}] 'params' must be an object")
    return problems


def parse_trace(text: str, name: str = "trace") -> ServiceTrace:
    """Parse and validate a trace document (fail-closed).

    Raises :class:`~repro.common.errors.ConfigError` on the first sign
    of a malformed or unsafe admission configuration — a service must
    never start admitting under a quota it cannot enforce.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"trace {name}: not valid JSON: {exc}")
    problems = trace_problems(data)
    if problems:
        raise ConfigError(
            f"trace {name}: invalid ({'; '.join(problems[:4])}"
            + (f"; +{len(problems) - 4} more)" if len(problems) > 4 else ")")
        )
    tenants = []
    for entry in data["tenants"]:
        quota_data = entry.get("quota", {})
        quota = TenantQuota(
            max_concurrent=quota_data.get("max_concurrent", 1),
            queue_limit=quota_data.get("queue_limit", 0),
            slot_budget=quota_data.get("slot_budget"),
        )
        tenant_name = entry["tenant"]
        jobs = tuple(
            JobRequest(
                tenant=tenant_name,
                index=index,
                at=float(job.get("at", 0.0)),
                workload=job["workload"],
                rows=job.get("rows", 160),
            )
            for index, job in enumerate(entry.get("jobs", []))
        )
        tenants.append(
            TenantSpec(
                name=tenant_name,
                quota=quota,
                jobs=jobs,
                faulty=bool(entry.get("faulty", False)),
            )
        )
    faults = tuple(
        (
            spec["kind"],
            spec["node"],
            tuple(sorted((spec.get("params") or {}).items())),
        )
        for spec in data.get("faults", [])
    )
    settings = {
        attribute: data[section][key]
        for section, keys in SETTINGS.items()
        for key, (attribute, _) in keys.items()
        if key in data.get(section, {})
    }
    trace = ServiceTrace(
        name=data.get("name", name),
        seed=int(data.get("seed", 20131209)),
        tenants=tuple(tenants),
        faults=faults,
        text=text,
        **settings,
    )
    trace.system_config()  # config-level validation (fail-closed too)
    try:
        trace.fault_plan()
    except TypeError as exc:
        raise ConfigError(f"trace {name}: bad fault params: {exc}") from None
    max_node = trace.num_nodes - 1
    for kind, node_index, _ in trace.faults:
        if node_index > max_node:
            raise ConfigError(
                f"trace {name}: fault {kind!r} targets node {node_index} "
                f"but the cluster has {trace.num_nodes} nodes"
            )
    return trace
