"""Configuration dataclasses.

Three layers of configuration mirror the paper's architecture:

* :class:`ClusterConfig` — shape of the untrusted computation tier
  (nodes, slots per node, heartbeat period).
* :class:`CostModelConfig` — the simulated performance model replacing
  the paper's wall-clock measurements (bytes/second throughputs, task
  startup overheads, digest hashing rate).
* :class:`ClusterBFTConfig` — the knobs the paper exposes to clients:
  expected failures ``f``, replication factor ``r``, number of
  verification points ``n``, digest chunk size ``d``, verifier timeout,
  suspicion threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated worker cluster (untrusted tier)."""

    num_nodes: int = 32
    slots_per_node: int = 3
    heartbeat_period: float = 1.0  # simulated seconds between heartbeats
    # Staggering heartbeats avoids thundering-herd scheduling artifacts.
    heartbeat_stagger: bool = True
    #: Hadoop-style speculative execution: when a task runs much longer
    #: than its finished siblings, launch a backup attempt on an idle
    #: node; the first completion wins.  Off by default — it masks the
    #: slow/omitting-node behaviours several paper experiments rely on.
    speculative_execution: bool = False
    #: A task becomes speculatable after running this multiple of the
    #: median sibling duration.
    speculation_slowdown: float = 2.0
    #: Absolute straggler floor: with no finished siblings to compare
    #: against (a slow node can hoard every sibling of its kind), any
    #: attempt older than this is speculatable.
    speculation_floor: float = 8.0
    #: Heartbeat silence (simulated seconds) after which the execution
    #: tracker declares a node crashed, re-dispatches its in-flight
    #: tasks and drops it from the inclusion list.  Must exceed the
    #: heartbeat period (a healthy node is silent for one full period
    #: between beats); 0 disables detection.
    crash_timeout: float = 5.0
    #: Geo layout: ``(name, node_count, speed)`` triples assigning
    #: consecutive node-index ranges to named regions.  ``speed`` scales
    #: simulated task throughput (2.0 = twice as fast); counts must sum
    #: to ``num_nodes``.  Empty = one flat LAN of identical nodes (the
    #: seed behaviour).  Survives the journal's JSON round-trip as
    #: lists, so helpers only ever index/iterate.
    regions: tuple = ()
    #: One-way WAN latency (simulated seconds) added to digest delivery
    #: when a worker's region differs from the control tier's region
    #: (the first region hosts the trusted tier).
    wan_latency_seconds: float = 0.08

    def validate(self) -> "ClusterConfig":
        if self.regions:
            names = [str(entry[0]) for entry in self.regions]
            if len(set(names)) != len(names):
                raise ConfigError("region names must be unique")
            if any(not name for name in names):
                raise ConfigError("region names must be non-empty")
            if any(int(entry[1]) < 1 for entry in self.regions):
                raise ConfigError("every region needs >= 1 node")
            if any(float(entry[2]) <= 0 for entry in self.regions):
                raise ConfigError("region speeds must be > 0")
            total = sum(int(entry[1]) for entry in self.regions)
            if total != self.num_nodes:
                raise ConfigError(
                    f"region node counts sum to {total}, expected "
                    f"num_nodes={self.num_nodes}"
                )
        if self.wan_latency_seconds < 0:
            raise ConfigError("wan_latency_seconds must be >= 0")
        return self._validate_shape()

    def region_of_index(self, index: int) -> str:
        """Region name for node ``index`` ('' on a flat cluster)."""
        for entry in self.regions:
            count = int(entry[1])
            if index < count:
                return str(entry[0])
            index -= count
        return ""

    def speed_of_index(self, index: int) -> float:
        """Speed profile for node ``index`` (1.0 on a flat cluster)."""
        for entry in self.regions:
            count = int(entry[1])
            if index < count:
                return float(entry[2])
            index -= count
        return 1.0

    def control_region(self) -> str:
        """Region hosting the trusted tier: the first declared region."""
        return str(self.regions[0][0]) if self.regions else ""

    def wan_seconds(self, region_a: str, region_b: str) -> float:
        """One-way WAN latency between two regions (0.0 within one)."""
        if not region_a or not region_b or region_a == region_b:
            return 0.0
        return self.wan_latency_seconds

    def _validate_shape(self) -> "ClusterConfig":
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if self.slots_per_node < 1:
            raise ConfigError("slots_per_node must be >= 1")
        if self.heartbeat_period <= 0:
            raise ConfigError("heartbeat_period must be > 0")
        if self.crash_timeout < 0:
            raise ConfigError("crash_timeout must be >= 0")
        if 0 < self.crash_timeout <= self.heartbeat_period:
            raise ConfigError(
                "crash_timeout must exceed heartbeat_period (or be 0 to disable)"
            )
        return self


@dataclass(frozen=True)
class CostModelConfig:
    """Simulated performance model.

    Default rates are loosely calibrated to the paper's testbed (12-core
    Xeon nodes, Hadoop 1.0.4): what matters for reproduction is the
    *ratios* between processing, I/O and hashing costs, not the absolute
    values.
    """

    map_throughput_bps: float = 64 * 1024 * 1024  # bytes/sec through a mapper
    reduce_throughput_bps: float = 48 * 1024 * 1024
    shuffle_throughput_bps: float = 96 * 1024 * 1024
    dfs_read_bps: float = 128 * 1024 * 1024
    dfs_write_bps: float = 80 * 1024 * 1024
    digest_bps: float = 400 * 1024 * 1024  # SHA-256 streaming rate
    #: Per-record interception overhead at a verification point.  The
    #: paper's verification functions are Penny agents spliced between
    #: Pig operators: each tuple crossing the point pays serialization
    #: and agent dispatch, which dwarfs the raw hashing cost.
    digest_per_record_seconds: float = 2e-6
    task_startup_seconds: float = 1.5  # JVM spawn + localization in Hadoop 1.x
    job_startup_seconds: float = 3.0  # job submission, split computation
    digest_network_seconds: float = 0.05  # digest message to trusted tier
    # Comparing two 32-byte digests is sub-microsecond work; the paper's
    # verification overhead is dominated by hashing + messaging, not the
    # trusted tier's comparisons.
    verifier_compare_seconds: float = 0.0005

    def validate(self) -> "CostModelConfig":
        rates = (
            self.map_throughput_bps,
            self.reduce_throughput_bps,
            self.shuffle_throughput_bps,
            self.dfs_read_bps,
            self.dfs_write_bps,
            self.digest_bps,
        )
        if any(rate <= 0 for rate in rates):
            raise ConfigError("all throughput rates must be > 0")
        if self.task_startup_seconds < 0 or self.job_startup_seconds < 0:
            raise ConfigError("startup overheads must be >= 0")
        if self.digest_per_record_seconds < 0:
            raise ConfigError("digest_per_record_seconds must be >= 0")
        return self


#: Replication guarantees the paper enumerates in §3.3 ("Variable
#: replication"): with r = f+1 the run is safe but may need re-execution;
#: with r = 2f+1 correctness is guaranteed absent omission failures;
#: with r = 3f+1 correctness is guaranteed under any Byzantine mix.
GUARANTEE_OPTIMISTIC = "optimistic"  # r = f + 1
GUARANTEE_NO_OMISSION = "no-omission"  # r = 2f + 1
GUARANTEE_FULL_BFT = "full-bft"  # r = 3f + 1


def replication_for_guarantee(f: int, guarantee: str) -> int:
    """Map a guarantee level to the replica count the paper prescribes."""
    if guarantee == GUARANTEE_OPTIMISTIC:
        return f + 1
    if guarantee == GUARANTEE_NO_OMISSION:
        return 2 * f + 1
    if guarantee == GUARANTEE_FULL_BFT:
        return 3 * f + 1
    raise ConfigError(f"unknown guarantee level: {guarantee!r}")


#: Adversary models (paper §2.3).  A *strong* adversary controls every
#: internal aspect of a node, so mid-job verification points inside a
#: node are pointless — only job boundaries (data at rest in trusted
#: storage) can be verified.  A *weak* adversary only causes omission or
#: commission faults, so any plan vertex is a candidate.
ADVERSARY_STRONG = "strong"
ADVERSARY_WEAK = "weak"


@dataclass(frozen=True)
class ClusterBFTConfig:
    """Client-visible knobs (paper Table 1 plus implementation settings)."""

    f: int = 1  # number of expected failures
    replication: int = 4  # r; defaults to 3f + 1
    verification_points: int = 1  # n
    digest_chunk_records: int = 0  # d; 0 = single digest per point (§6.4)
    adversary: str = ADVERSARY_STRONG
    verifier_timeout: float = 600.0  # simulated seconds
    suspicion_threshold: float = 0.95  # evict node when s > threshold
    #: Soft degradation tier below eviction: nodes whose suspicion
    #: exceeds this stop receiving new replicas (the scheduler skips
    #: them) but stay in the cluster for probing/exoneration.  ``None``
    #: disables quarantine (the seed behaviour).
    quarantine_threshold: float | None = None
    #: Minimum jobs a node must have executed before the threshold can
    #: evict it — one unattributed verification failure would otherwise
    #: give every involved node s = 1/1 and depopulate the cluster.
    suspicion_min_jobs: int = 3
    max_reruns: int = 3  # rerun attempts with escalated r
    rerun_extra_replicas: int = 1  # r increase per rerun
    #: Must stay False for safety (§5.3): the controller's schedulers
    #: never collocate two replicas of a job, so ``validate`` rejects
    #: True.  Kept because every v1 journal header carries it.
    collocate_replicas: bool = False
    #: Online reconfiguration: when a region's aggregate suspicion
    #: (total faults / total jobs over its nodes) crosses this
    #: threshold, in-flight replica sets migrate out of the region and
    #: its nodes are quarantined.  ``None`` disables reconfiguration
    #: (the seed behaviour); only meaningful on a multi-region cluster.
    region_suspicion_threshold: float | None = None
    #: Minimum jobs executed across a region before its aggregate
    #: suspicion can trigger a migration — mirrors
    #: ``suspicion_min_jobs`` at region granularity.
    region_min_jobs: int = 6
    #: Checkpoint tier: commit verified, output-covered sub-graphs at
    #: *verdict time* (journaled as fsync'd ``checkpoint`` WAL records)
    #: instead of only at the attempt boundary.  A control-tier crash
    #: mid-attempt then resumes from the last verified checkpoint rather
    #: than rerunning the whole sub-graph.  ``False`` is the seed
    #: behaviour (byte-identical journals).
    checkpoints: bool = False
    #: Expected-rerun-cost checkpoint placement: fraction of the
    #: verification-point candidates to mark (deterministic greedy by
    #: covered upstream work).  ``0.0`` keeps the fixed
    #: ``verification_points`` placement (the seed behaviour).
    checkpoint_density: float = 0.0
    #: Upper bound on the rerun escalation's ``timeout *= 2`` doubling.
    #: ``None`` (the seed behaviour) leaves the escalation unbounded;
    #: when set, escalated timeouts clamp to this value and the cap hit
    #: is audited.
    max_verifier_timeout: float | None = None

    def validate(self) -> "ClusterBFTConfig":
        if self.f < 0:
            raise ConfigError("f must be >= 0")
        if self.replication < self.f + 1:
            raise ConfigError(
                f"replication r={self.replication} cannot mask f={self.f} "
                f"failures; need r >= f + 1"
            )
        if self.verification_points < 0:
            raise ConfigError("verification_points must be >= 0")
        if self.digest_chunk_records < 0:
            raise ConfigError("digest_chunk_records must be >= 0")
        if self.adversary not in (ADVERSARY_STRONG, ADVERSARY_WEAK):
            raise ConfigError(f"unknown adversary model: {self.adversary!r}")
        if self.verifier_timeout <= 0:
            raise ConfigError("verifier_timeout must be > 0")
        if not 0.0 <= self.suspicion_threshold <= 1.0:
            raise ConfigError("suspicion_threshold must be in [0, 1]")
        if self.quarantine_threshold is not None and not (
            0.0 <= self.quarantine_threshold <= 1.0
        ):
            raise ConfigError("quarantine_threshold must be in [0, 1] or None")
        if self.max_reruns < 0:
            raise ConfigError("max_reruns must be >= 0")
        if self.collocate_replicas:
            raise ConfigError(
                "collocate_replicas is not supported: replicas of a job "
                "must run on distinct nodes (§5.3)"
            )
        if self.region_suspicion_threshold is not None and not (
            0.0 <= self.region_suspicion_threshold <= 1.0
        ):
            raise ConfigError(
                "region_suspicion_threshold must be in [0, 1] or None"
            )
        if self.region_min_jobs < 1:
            raise ConfigError("region_min_jobs must be >= 1")
        if not 0.0 <= self.checkpoint_density <= 1.0:
            raise ConfigError("checkpoint_density must be in [0, 1]")
        if (
            self.max_verifier_timeout is not None
            and self.max_verifier_timeout < self.verifier_timeout
        ):
            raise ConfigError(
                "max_verifier_timeout must be >= verifier_timeout (or None)"
            )
        return self

    @property
    def quorum(self) -> int:
        """Matching digests required to accept an output: f + 1."""
        return self.f + 1

    def escalated(self) -> "ClusterBFTConfig":
        """Configuration for a rerun after verification failure/timeout:
        the paper re-initiates the job "with a higher value for r"."""
        return replace(self, replication=self.replication + self.rerun_extra_replicas)


@dataclass(frozen=True)
class SystemConfig:
    """Bundle of all three layers, used by the end-to-end controller."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    cost: CostModelConfig = field(default_factory=CostModelConfig)
    bft: ClusterBFTConfig = field(default_factory=ClusterBFTConfig)
    seed: int = 20131209

    def validate(self) -> "SystemConfig":
        self.cluster.validate()
        self.cost.validate()
        self.bft.validate()
        return self


def overridden(base: SystemConfig, cluster: dict, bft: dict, seed: int) -> SystemConfig:
    """``base`` with the ``ClusterConfig`` fields in ``cluster``, the
    ``ClusterBFTConfig`` fields in ``bft`` and ``seed`` replaced, then
    validated.  A key that names no field is a :class:`ConfigError`,
    never silently ignored."""
    try:
        config = replace(
            base,
            cluster=replace(base.cluster, **cluster),
            bft=replace(base.bft, **bft),
            seed=seed,
        )
    except TypeError as exc:  # an unexpected keyword argument
        raise ConfigError(f"no such config field: {exc}") from None
    return config.validate()
