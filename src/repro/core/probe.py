"""Dummy-job probing: active fault isolation (paper §3.3).

"Similarly, dummy jobs can be used to further probe nodes in such a
suspicious replication group."  When the fault analyzer has narrowed
suspicion to a set of nodes but not to a single culprit, the control
tier can *spend resources to buy attribution precision*: it runs small
probe jobs whose replicas are deliberately placed on chosen node
subsets, and compares their digests against a replica on known-good
nodes.

:class:`ProbeManager` binary-searches a suspect set: each round runs one
probe job with a *candidate* replica (half of the suspects, padded with
clean nodes to satisfy the probe's slot needs) against a *reference*
replica on clean nodes only.  A digest mismatch proves the faulty node
is in the candidate half.  Byzantine nodes that only misbehave
probabilistically (the paper's "infected node may be mostly producing
correct output") are handled by repeating each round up to
``repeats_per_round`` times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.ids import NodeId
from repro.common.records import Record
from repro.compiler.mr_compiler import CompileOptions, compile_plan
from repro.core.audit import PROBE
from repro.core.instrument import instrument
from repro.dataflow.piglatin import parse_script
from repro.mapreduce.engine import DigestReport, JobRun


@dataclass
class ProbeOutcome:
    """Result of a probing campaign over one suspect set."""

    suspects_before: frozenset[NodeId]
    isolated: list[NodeId] = field(default_factory=list)
    probes_run: int = 0
    exonerated: set[NodeId] = field(default_factory=set)

    @property
    def narrowed(self) -> bool:
        return len(self.isolated) > 0


#: The probe workload: a small group-and-count over synthetic pairs.
#: Deterministic, touches map and reduce paths, cheap.
_PROBE_SCRIPT = """
probe = LOAD '__probe/input' AS (k:int, v:int);
G = GROUP probe BY k;
C = FOREACH G GENERATE group AS k, COUNT(probe) AS n;
STORE C INTO '__probe/output';
"""


def _probe_records(size: int) -> list[Record]:
    return [Record((i % 7, i)) for i in range(size)]


class ProbeManager:
    """Runs placement-constrained dummy jobs through a controller.

    The manager needs at least ``probe_slots`` clean nodes (not in the
    suspect set, not excluded) to host the reference replica and to pad
    the candidate replica.
    """

    def __init__(
        self,
        controller,
        probe_records: int = 400,
        repeats_per_round: int = 3,
        max_rounds: int = 16,
    ) -> None:
        self.controller = controller
        self.probe_records = probe_records
        self.repeats_per_round = repeats_per_round
        self.max_rounds = max_rounds
        self._probe_counter = 0
        self._input_ready = False

    # ------------------------------------------------------------------

    def _clean_nodes(self, suspects: set[NodeId]) -> list[NodeId]:
        cluster = self.controller.cluster
        return [
            node.node_id
            for node in cluster.active_nodes()
            if node.node_id not in suspects
        ]

    def _ensure_input(self) -> None:
        if not self._input_ready:
            self.controller.load_input(
                "__probe/input", _probe_records(self.probe_records)
            )
            self._input_ready = True

    # ------------------------------------------------------------------

    def run_probe(self, candidate_nodes: set[NodeId], reference_nodes: set[NodeId]) -> bool:
        """Run one probe; True iff the candidate replica's digests differ
        from the reference replica's (fault present among candidates)."""
        self._ensure_input()
        controller = self.controller
        plan = parse_script(_PROBE_SCRIPT)
        instrumented = instrument(plan, [], include_outputs=True)
        graph = compile_plan(
            instrumented.plan,
            CompileOptions(num_reducers=2, temp_prefix="__probe/tmp"),
        )
        self._probe_counter += 1
        probe_id = f"probe{self._probe_counter:04d}"

        vectors: dict[int, dict] = {0: {}, 1: {}}
        completed: set[tuple[int, int]] = set()

        def sink(report: DigestReport) -> None:
            for digest in report.digests:
                key = (report.vp_id, report.task_label, digest.chunk_index)
                vectors[report.replica][key] = digest.value

        placements = {0: set(candidate_nodes), 1: set(reference_nodes)}
        expected: set[tuple[int, int]] = set()
        for job_index in graph.topological_order():
            spec = graph.jobs[job_index]
            for replica, allowed in placements.items():
                run = JobRun(
                    job_id=f"{probe_id}.j{job_index}.r{replica}",
                    sid=f"{probe_id}.j{job_index}",
                    replica=replica,
                    spec=spec,
                    path_map={
                        spec.output_path: f"__probe/{probe_id}/r{replica}/out"
                    },
                    scope=probe_id,
                    digest_sink=sink,
                    on_complete=lambda run, j=job_index, k=replica: completed.add(
                        (j, k)
                    ),
                    total_replicas=2,
                    allowed_nodes=allowed,
                )
                expected.add((job_index, replica))
                controller.engine.submit(run)

        deadline = controller.loop.now + 120.0
        controller.loop.run_while(
            lambda: completed < expected and controller.loop.now < deadline
        )
        # Let trailing digest messages land.
        controller.loop.run_until(
            controller.loop.now + 4 * controller.config.cost.digest_network_seconds
        )
        return vectors[0] != vectors[1]

    # ------------------------------------------------------------------

    def isolate(self, suspects: set[NodeId]) -> ProbeOutcome:
        """Binary-search ``suspects`` down to individual faulty nodes
        and leave one ``probe`` audit entry for the campaign.

        Assumes at most one faulty node per disjoint suspect set (the
        invariant the Fig. 7 analyzer establishes once |D| = f).
        """
        outcome = self._search(suspects)
        before = tuple(sorted(suspects))
        self.controller.audit.record(
            self.controller.loop.now,
            PROBE,
            ",".join(before),
            nodes=before,  # the key ``AuditLog.node_history`` looks in
            isolated=tuple(outcome.isolated),
            probes_run=outcome.probes_run,
        )
        return outcome

    def _search(self, suspects: set[NodeId]) -> ProbeOutcome:
        outcome = ProbeOutcome(suspects_before=frozenset(suspects))
        clean = self._clean_nodes(set(suspects))
        if len(clean) < 2:
            return outcome  # nowhere to host a reference replica

        pool = sorted(suspects)
        rounds = 0
        while len(pool) > 1 and rounds < self.max_rounds:
            rounds += 1
            half = set(pool[: len(pool) // 2])
            # The candidate replica runs *exclusively* on the probed half
            # — padding it with clean nodes would let them take all the
            # tasks and leave the suspects untested (tasks simply queue
            # on a small node set).  The reference replica is fully clean.
            candidate = set(half)
            reference = set(clean[-max(2, len(half)):])
            hit = False
            for _ in range(self.repeats_per_round):
                outcome.probes_run += 1
                if self.run_probe(candidate, reference):
                    hit = True
                    break
            if hit:
                outcome.exonerated |= set(pool) - half
                pool = sorted(half)
            else:
                outcome.exonerated |= half
                pool = sorted(set(pool) - half)
        if len(pool) == 1:
            # Confirm: a flaky node may have stayed silent in one round,
            # sending the search down the wrong half.  Only report an
            # isolation the survivor actually reproduces.
            survivor = pool[0]
            candidate = {survivor}
            reference = set(clean[-2:])
            for _ in range(self.repeats_per_round):
                outcome.probes_run += 1
                if self.run_probe(candidate, reference):
                    outcome.isolated = [survivor]
                    break
        return outcome
