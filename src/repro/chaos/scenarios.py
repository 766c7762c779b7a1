"""Declarative chaos scenarios.

A :class:`Scenario` bundles a fault mix, the overrides of
:data:`CHAOS_BASE` it runs under, and what the invariant checkers
should expect from it.
Scenarios are pure data — node targets are *indices* resolved against
the cluster at build time, parameters are literal — so a campaign is
reproducible from its report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import (
    ClusterBFTConfig,
    ClusterConfig,
    SystemConfig,
    overridden,
)
from repro.common.errors import ConfigError, ReproError
from repro.common.ids import NodeId
from repro.faults.behaviors import FAULT_BEHAVIORS, CrashBehavior
from repro.faults.injection import FaultPlan

#: Network-endpoint fault kinds (applied to the replicated front-end's
#: SimNetwork, not to worker behaviours).
NETWORK_KINDS = ("net-drop", "net-delay")

#: Region-scale fault kind: ``FaultSpec.node`` indexes the deployment's
#: ``regions`` tuple (not a worker), and the spec expands to a
#: first-heartbeat crash on every node of that region — a deterministic
#: whole-region outage.
REGION_LOSS = "region-loss"

#: The deployment every scenario overrides: a 12-node cluster with fast
#: heartbeats and crash detection, and a verifier timeout sized to the
#: campaign's small jobs.  Everything else is the config default.
CHAOS_BASE = SystemConfig(
    cluster=ClusterConfig(num_nodes=12, heartbeat_period=0.4, crash_timeout=2.0),
    bft=ClusterBFTConfig(verifier_timeout=60.0),
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault in a scenario: ``kind`` applied to node index ``node``.

    For node faults ``node`` indexes the worker cluster (``node_0003``);
    for network faults it indexes the PBFT replica set (``rh_2``).
    ``params`` are keyword arguments of the behaviour/filter, stored as
    a tuple of pairs to keep the spec hashable.
    """

    kind: str
    node: int
    params: tuple[tuple[str, object], ...] = ()

    def kwargs(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class Scenario:
    """One cell of the chaos matrix (before the seed sweep)."""

    name: str
    description: str
    faults: tuple[FaultSpec, ...] = ()
    #: Deployment overrides, applied over :data:`CHAOS_BASE` by
    #: :meth:`system_config`: ``ClusterConfig`` fields in ``cluster``
    #: (a geo layout in ``regions``, say), ``ClusterBFTConfig`` fields
    #: in ``bft``.  A key that names no field fails at resolution.
    cluster: dict = field(default_factory=dict)
    bft: dict = field(default_factory=dict)
    #: Scripts executed back-to-back on the same deployment (suspicion
    #: and attribution accumulate across them).
    runs: int = 1
    #: Control-tier crash sweep: run the cell once journaled and
    #: uninterrupted, then once per journal record with the control
    #: tier crashing right after that record — resuming each crash and
    #: checking the ``DUR1`` invariant (resume ≡ uninterrupted).
    #: Durability cells imply one script run per journal (``runs=1``).
    control_crashes: bool = False
    #: Checkpoint-boundary crash sweep: run the cell once journaled and
    #: uninterrupted plus a checkpoint-free twin, then crash + resume
    #: at every ``checkpoint`` WAL record (and the record after it),
    #: checking the ``CKPT1`` invariant (checkpointed rerun ≡ full
    #: rerun, byte-identical).  Implies ``runs=1``.
    ckpt_sweep: bool = False
    # -- expectations the invariant checkers consume ---------------------
    #: Every script run must end assured (LIVE1 folds this in).
    expect_assured: bool = True
    #: Worker indices that must end up in the suspect superset (LIVE2).
    attributed_nodes: tuple[int, ...] = ()
    #: REG1: region name expected to be lost wholesale — every node of
    #: it must end detected-dead/excluded while runs stay assured.
    expect_region_loss: str | None = None
    #: REG1: region name the reconfiguration engine must audibly
    #: migrate replica sets out of (a ``reconfig`` audit record).
    expect_migration_from: str | None = None
    #: Documentation of deliberately weakened scenarios: invariants the
    #: scenario is *expected* to trip (campaign still reports them as
    #: violations — the flag is for tests and humans, not the checker).
    expected_violations: tuple[str, ...] = field(default=())
    #: OBS1: built-in SLO alert rules (by name, see
    #: :data:`repro.telemetry.slo.DEFAULT_RULES`) that the injected
    #: faults must make fire — and that a fault-free twin of the same
    #: deployment must *not* fire.  Non-empty tuples make the runner
    #: execute the telemetry-enabled fault-free twin.
    expected_alerts: tuple[str, ...] = ()

    @property
    def uses_network_faults(self) -> bool:
        return any(spec.kind in NETWORK_KINDS for spec in self.faults)

    def system_config(self, seed: int) -> SystemConfig:
        """The deployment of this scenario at sweep seed ``seed``."""
        try:
            return overridden(CHAOS_BASE, self.cluster, self.bft, 20131209 + seed)
        except ConfigError as exc:
            raise ConfigError(f"scenario {self.name!r}: {exc}") from None


@dataclass(frozen=True)
class ServiceScenario:
    """One multi-tenant *service-tier* cell: a synthetic tenant trace
    (from :func:`repro.service.bench.synth_trace`) run through the
    whole admission → fair-share → shared-suspicion pipeline, checked
    by the tenant-isolation invariants (``TEN1``/``TEN2``) instead of
    the single-run ones.

    ``trace_kwargs`` parameterize the generator; the sweep seed is
    folded into the trace seed exactly like :meth:`Scenario.system_config`
    does, so cells stay reproducible from the report alone.
    """

    name: str
    description: str
    trace_kwargs: dict = field(default_factory=dict)
    #: TEN1: p99 admission-to-verdict latency bound (simulated seconds)
    #: for *honest* tenants — a flooding tenant must not push the
    #: others past it.  ``None`` disables the latency clause.
    honest_p99_bound: float | None = None
    #: TEN1: the flood must actually trip admission control (at least
    #: one rejection, all of them charged to faulty tenants).
    expect_rejections: bool = False
    #: TEN2: a node driven faulty by one tenant's traffic must be
    #: quarantined/evicted (with that tenant attributed in the audit
    #: log) before another tenant's later run can schedule onto it.
    expect_cross_tenant_quarantine: bool = False

    def trace_text(self, seed: int) -> str:
        from repro.service.bench import synth_trace

        kwargs = dict(self.trace_kwargs)
        kwargs["seed"] = 20131209 + seed
        kwargs.setdefault("name", self.name)
        return synth_trace(**kwargs)


def _region_node_range(
    scenario: Scenario, regions: tuple, region_index: int
) -> tuple[int, int]:
    """(start, count) of node indices for a region of the deployment."""
    if not 0 <= region_index < len(regions):
        raise ReproError(
            f"scenario {scenario.name!r}: region index {region_index} out of "
            f"range for {len(regions)} regions"
        )
    start = sum(count for _name, count, _speed in regions[:region_index])
    return start, regions[region_index][1]


def build_fault_plan(
    scenario: Scenario, node_ids: list[NodeId], regions: tuple = ()
) -> FaultPlan:
    """Resolve a scenario's node faults against concrete node ids and
    the deployment's ``regions`` (``ClusterConfig.regions``)."""
    plan = FaultPlan()
    for spec in scenario.faults:
        if spec.kind in NETWORK_KINDS:
            continue  # applied to the front-end network, not a worker
        if spec.kind == REGION_LOSS:
            # ``node`` names a region; every node of it crash-stops at
            # its first heartbeat (after_tasks=0 unless overridden).
            start, count = _region_node_range(scenario, regions, spec.node)
            params = {"after_tasks": 0, **spec.kwargs()}
            for offset in range(count):
                plan.assign(node_ids[start + offset], CrashBehavior(**params))
            continue
        try:
            behavior_cls = FAULT_BEHAVIORS[spec.kind]
        except KeyError:
            raise ReproError(f"unknown fault kind: {spec.kind!r}") from None
        if not 0 <= spec.node < len(node_ids):
            raise ReproError(
                f"scenario {scenario.name!r}: node index {spec.node} out of "
                f"range for {len(node_ids)} nodes"
            )
        plan.assign(node_ids[spec.node], behavior_cls(**spec.kwargs()))
    return plan


#: Shared geo layouts (12 nodes, consecutive index ranges).
_GEO_REGIONS = (("east", 4, 1.0), ("west", 4, 1.0), ("south", 4, 1.0))
_SLOW_REGIONS = (("east", 4, 1.0), ("west", 4, 1.0), ("slow", 4, 0.5))


def _scenario_list() -> list[Scenario]:
    return [
        Scenario(
            name="baseline",
            description="no faults; every invariant must hold trivially",
        ),
        Scenario(
            name="commission",
            description="one node tampers task streams; quorum masks it",
            faults=(FaultSpec("commission", 2, (("probability", 0.8),)),),
            runs=2,
            attributed_nodes=(2,),
        ),
        Scenario(
            name="omission",
            description="one node withholds completions; verifier timeout "
            "and rerun escalation recover",
            faults=(FaultSpec("omission", 3, (("probability", 0.5),)),),
            bft={"verifier_timeout": 40.0},
        ),
        Scenario(
            name="crash",
            description="one node crash-stops mid-run; heartbeat-silence "
            "detection re-dispatches its in-flight tasks",
            faults=(FaultSpec("crash", 4, (("after_tasks", 2),)),),
            cluster={"crash_timeout": 1.0},
            runs=2,
        ),
        Scenario(
            name="equivocate",
            description="honest digests over poisoned storage; the "
            "commit-time content cross-check demotes the divergent winner",
            faults=(FaultSpec("equivocate", 5, (("probability", 1.0),)),),
            attributed_nodes=(5,),
        ),
        Scenario(
            name="storage-rot",
            description="bit-rot on one node's DFS read path; its digests "
            "cover the rotten stream and lose the vote",
            faults=(FaultSpec("storage-rot", 6, (("probability", 1.0),)),),
            runs=2,
            attributed_nodes=(6,),
        ),
        Scenario(
            name="quarantine",
            description="a flaky node accumulates suspicion past the "
            "quarantine threshold and must stop receiving tasks",
            faults=(
                FaultSpec("flaky-commission", 2, (("probability", 0.7),)),
            ),
            # Eviction needs level > 1.0 here: the scenario demonstrates
            # the *soft* quarantine tier, not eviction.
            bft={"quarantine_threshold": 0.2, "suspicion_threshold": 1.0},
            runs=4,
            attributed_nodes=(2,),
        ),
        Scenario(
            name="net-drop",
            description="one PBFT front-end replica's outbound messages "
            "are dropped; consensus still orders submissions",
            faults=(FaultSpec("net-drop", 3, (("probability", 1.0),)),),
        ),
        Scenario(
            name="net-delay",
            description="delay spikes on one PBFT replica's links; "
            "quorums form from the timely replicas",
            faults=(
                FaultSpec(
                    "net-delay", 2, (("extra_seconds", 3.0), ("probability", 0.5))
                ),
            ),
        ),
        Scenario(
            name="combo",
            description="crash + commission together under one f=1 budget",
            faults=(
                FaultSpec("crash", 7, (("after_tasks", 3),)),
                FaultSpec("commission", 2, (("probability", 0.8),)),
            ),
            cluster={"crash_timeout": 1.0},
            runs=2,
        ),
        Scenario(
            name="exhaustion",
            description="verifier timeout far below any job latency: every "
            "attempt times out, the rerun budget exhausts, and the run must "
            "end with an explicit unassured/exhausted verdict (LIVE-class "
            "outcome), not a crash",
            bft={"verifier_timeout": 0.05, "max_reruns": 1},
            expect_assured=False,
        ),
        Scenario(
            name="ctl-crash",
            description="control-tier crash sweep under a commission fault: "
            "kill the trusted tier after every journaled decision point, "
            "resume from the WAL, require byte-identical outputs (DUR1)",
            faults=(FaultSpec("commission", 2, (("probability", 0.8),)),),
            control_crashes=True,
            attributed_nodes=(2,),
        ),
        Scenario(
            name="ctl-crash-omission",
            description="control-tier crash sweep with a verifier timeout "
            "below the first attempt's latency: rerun escalation spans "
            "several attempts, so crashes land after attempt boundaries "
            "and the resume path restores mid-escalation state",
            faults=(FaultSpec("omission", 3, (("probability", 0.5),)),),
            bft={"verifier_timeout": 1.5},
            control_crashes=True,
        ),
        Scenario(
            name="ctl-crash-final",
            description="control-tier crash sweep with a zero rerun "
            "budget: assurance lands on the last allowed attempt, so the "
            "crash between its attempt_end and run_end resumes with "
            "start_attempt past max_reruns — the fully-settled snapshot "
            "must still be judged assured (DUR1), not read as exhaustion",
            bft={"max_reruns": 0},
            control_crashes=True,
        ),
        Scenario(
            name="ckpt-baseline",
            description="checkpoint-boundary crash sweep on a fault-free "
            "checkpointed run: every verified sub-graph commits eagerly "
            "at verdict time, the sweep kills the control tier right "
            "after each checkpoint record (and the record following it) "
            "and the resume must restore the committed prefix and "
            "publish bytes identical to a checkpoint-free twin (CKPT1)",
            bft={"checkpoints": True},
            ckpt_sweep=True,
        ),
        Scenario(
            name="ckpt-omission",
            description="checkpoint-boundary crash sweep under rerun "
            "escalation: a verifier timeout below the first attempt's "
            "latency forces several attempts, so checkpoints committed "
            "mid-attempt shrink each rerun's closure while the timeout "
            "escalation hits its configured cap — crash-resume at every "
            "checkpoint boundary must still equal the full rerun (CKPT1)",
            faults=(FaultSpec("omission", 3, (("probability", 0.5),)),),
            bft={
                "verifier_timeout": 1.5,
                "max_verifier_timeout": 6.0,
                "checkpoints": True,
            },
            ckpt_sweep=True,
        ),
        Scenario(
            name="ckpt-density",
            description="expected-rerun-cost placement plus checkpointing "
            "under an omission fault: verification points are chosen by "
            "checkpoint_density instead of the paper's fixed-count "
            "marker, and the checkpoint-boundary sweep must still match "
            "the checkpoint-free twin byte-for-byte (CKPT1)",
            faults=(FaultSpec("omission", 3, (("probability", 0.5),)),),
            bft={
                "verifier_timeout": 1.5,
                "checkpoints": True,
                "checkpoint_density": 0.5,
            },
            ckpt_sweep=True,
        ),
        Scenario(
            name="geo-baseline",
            description="three regions behind a WAN, no faults: "
            "placement homes every replica set across at least two "
            "regions and all invariants hold trivially",
            cluster={"regions": _GEO_REGIONS, "wan_latency_seconds": 0.25},
        ),
        Scenario(
            name="region-loss",
            description="a minority region crash-stops wholesale at its "
            "first heartbeat; heartbeat-silence detection excludes it, "
            "its replicas re-home to the surviving regions, and every "
            "run still ends assured (REG1)",
            faults=(FaultSpec(REGION_LOSS, 2),),
            cluster={
                "regions": _GEO_REGIONS,
                "wan_latency_seconds": 0.25,
                "crash_timeout": 1.0,
            },
            runs=2,
            expect_region_loss="south",
        ),
        Scenario(
            name="wan-spike",
            description="WAN latency an order of magnitude above "
            "baseline: cross-region digests arrive late but quorums "
            "still settle inside the verifier timeout",
            cluster={
                "regions": (("east", 6, 1.0), ("west", 6, 1.0)),
                "wan_latency_seconds": 3.0,
            },
        ),
        Scenario(
            name="slow-region-equivocate",
            description="a slow region hosts an equivocator: per-region "
            "suspicion crosses the threshold and the reconfiguration "
            "engine conservatively migrates replica sets out of every "
            "implicated region mid-run — early attribution is coarse, "
            "so the honest straggler region moves too, while the "
            "never-drain-last-region guard keeps capacity (REG1 audits "
            "a reconfig record for the degraded region)",
            faults=(FaultSpec("equivocate", 8, (("probability", 1.0),)),),
            cluster={"regions": _SLOW_REGIONS, "wan_latency_seconds": 0.25},
            bft={"region_suspicion_threshold": 0.2, "region_min_jobs": 2},
            runs=2,
            attributed_nodes=(8,),
            expect_migration_from="slow",
        ),
        Scenario(
            name="geo-ctl-crash",
            description="control-tier crash sweep over a geo run whose "
            "WAL carries a reconfig record: kill after every journaled "
            "decision point — including mid-migration — resume from the "
            "WAL, require byte-identical outputs (DUR1)",
            faults=(FaultSpec("equivocate", 8, (("probability", 1.0),)),),
            cluster={"regions": _SLOW_REGIONS, "wan_latency_seconds": 0.25},
            bft={"region_suspicion_threshold": 0.2, "region_min_jobs": 2},
            control_crashes=True,
            attributed_nodes=(8,),
        ),
        Scenario(
            name="obs-commission",
            description="OBS1: a tampering node must fire the "
            "replica-suspicion alert; the fault-free twin stays silent",
            faults=(FaultSpec("commission", 2, (("probability", 0.8),)),),
            runs=2,
            attributed_nodes=(2,),
            expected_alerts=("replica-suspicion",),
        ),
        Scenario(
            name="obs-timeout",
            description="OBS1: with r = f+1, one slow replica blocks the "
            "digest quorum past the verifier deadline (Table 3 case 2) "
            "and must fire the verification-timeout alert; the fault-free "
            "twin — same deadline, no slow node — stays silent",
            faults=(FaultSpec("slow", 0, (("factor", 20.0),)),),
            bft={"replication": 2, "verifier_timeout": 8.0},
            expected_alerts=("verification-timeout",),
        ),
        Scenario(
            name="obs-crash",
            description="OBS1: a crash-stopped node must fire the "
            "node-crash alert; the fault-free twin stays silent",
            faults=(FaultSpec("crash", 4, (("after_tasks", 2),)),),
            cluster={"crash_timeout": 1.0},
            runs=2,
            expected_alerts=("node-crash",),
        ),
        Scenario(
            name="obs-quarantine",
            description="OBS1: a flaky node crossing the quarantine "
            "threshold must fire the node-quarantine alert; the "
            "fault-free twin stays silent",
            faults=(
                FaultSpec("flaky-commission", 2, (("probability", 0.7),)),
            ),
            bft={"quarantine_threshold": 0.2, "suspicion_threshold": 1.0},
            runs=4,
            attributed_nodes=(2,),
            expected_alerts=("node-quarantine", "replica-suspicion"),
        ),
        Scenario(
            name="weakened-safe1",
            description="DELIBERATELY WEAKENED: f=0, r=1 — the single "
            "(corrupt) replica is its own quorum, so a tampered record "
            "reaches the verified sink and SAFE1 must trip",
            faults=(FaultSpec("commission", 0, (("probability", 1.0),)),),
            cluster={"num_nodes": 1},
            bft={"f": 0, "replication": 1},
            expect_assured=True,  # the system *believes* it succeeded
            expected_violations=("SAFE1",),
        ),
    ]


def _service_scenario_list() -> list[ServiceScenario]:
    return [
        ServiceScenario(
            name="tenant-flood",
            description="one tenant floods 4x over quota; admission "
            "rejects the excess, fair-share keeps the other tenants' "
            "p99 latency bounded, and every honest run stays assured",
            trace_kwargs={
                "tenants": 4,
                "jobs_per_tenant": 3,
                "quota": 1,
                "queue_limit": 2,
                "faulty_tenants": 1,
                "nodes": 10,
                "rows": 24,
                "arrival_period": 3.0,
            },
            honest_p99_bound=60.0,
            expect_rejections=True,
        ),
        ServiceScenario(
            name="cross-tenant-quarantine",
            description="a flaky replica driven by the flooding tenant's "
            "early traffic crosses the (lowered) quarantine threshold "
            "before the honest tenants' later runs schedule — shared "
            "suspicion amortized across tenants (Fig. 7, service tier)",
            trace_kwargs={
                "tenants": 3,
                "jobs_per_tenant": 3,
                "quota": 2,
                "queue_limit": 2,
                "faulty_tenants": 1,
                "nodes": 10,
                "rows": 24,
                "arrival_period": 4.0,
                "bft": {
                    "quarantine_threshold": 0.2,
                    "suspicion_threshold": 1.0,
                    "suspicion_min_jobs": 2,
                },
                "faults": [
                    {
                        "kind": "flaky-commission",
                        "node": 2,
                        "params": {"probability": 0.9},
                    }
                ],
            },
            expect_cross_tenant_quarantine=True,
        ),
    ]


SCENARIOS: dict[str, Scenario] = {s.name: s for s in _scenario_list()}
SCENARIOS.update({s.name: s for s in _service_scenario_list()})

DEFAULT_CAMPAIGN = (
    "baseline",
    "commission",
    "omission",
    "crash",
    "equivocate",
    "storage-rot",
    "quarantine",
    "net-drop",
    "net-delay",
    "combo",
    "exhaustion",
)

#: CI-sized campaign: small, fast, still covers every fault family.
SMOKE_CAMPAIGN = (
    "baseline",
    "commission",
    "crash",
    "equivocate",
    "storage-rot",
    "quarantine",
)

#: Control-tier durability campaign: crash-at-every-decision-point
#: sweeps (the ``DUR1`` acceptance demo) plus the exhaustion path.
DURABILITY_CAMPAIGN = (
    "ctl-crash",
    "ctl-crash-omission",
    "ctl-crash-final",
    "exhaustion",
)

#: Multi-tenant service-tier campaign (TEN1/TEN2 invariants).
SERVICE_CAMPAIGN = (
    "tenant-flood",
    "cross-tenant-quarantine",
)

#: Geo-replication campaign: region-aware placement, whole-region
#: loss, WAN degradation and online reconfiguration (REG1 + DUR1).
GEO_CAMPAIGN = (
    "geo-baseline",
    "region-loss",
    "wan-spike",
    "slow-region-equivocate",
    "geo-ctl-crash",
)

#: Observability campaign: every cell injects a fault class and
#: requires the matching built-in SLO alert to fire (OBS1), with a
#: fault-free twin of the same deployment staying silent.
OBS_CAMPAIGN = (
    "obs-commission",
    "obs-timeout",
    "obs-crash",
    "obs-quarantine",
)

#: Checkpoint campaign: crash-sweeps through every checkpoint boundary
#: plus checkpoint-free twin comparisons (the ``CKPT1`` acceptance
#: demo), under fault-free, escalating-rerun and density-placement
#: cells.
CKPT_CAMPAIGN = (
    "ckpt-baseline",
    "ckpt-omission",
    "ckpt-density",
)

CAMPAIGNS: dict[str, tuple[str, ...]] = {
    "default": DEFAULT_CAMPAIGN,
    "smoke": SMOKE_CAMPAIGN,
    "durability": DURABILITY_CAMPAIGN,
    "service": SERVICE_CAMPAIGN,
    "geo": GEO_CAMPAIGN,
    "obs": OBS_CAMPAIGN,
    "ckpt": CKPT_CAMPAIGN,
}


def resolve_scenarios(selector: str) -> list[Scenario]:
    """Resolve a CLI selector: a campaign name or comma-joined scenario
    names (``"default"``, ``"smoke"``, ``"crash,equivocate"``)."""
    if selector in CAMPAIGNS:
        return [SCENARIOS[name] for name in CAMPAIGNS[selector]]
    chosen = []
    for name in selector.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in SCENARIOS:
            known = ", ".join(sorted(set(SCENARIOS) | set(CAMPAIGNS)))
            raise ReproError(f"unknown scenario {name!r} (known: {known})")
        chosen.append(SCENARIOS[name])
    if not chosen:
        raise ReproError(f"no scenarios selected by {selector!r}")
    return chosen
