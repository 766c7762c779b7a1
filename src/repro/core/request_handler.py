"""Request handler: client handler + graph analyzer + job initiator prep.

The control-tier component that accepts a script, turns it into an
instrumented, compiled job graph, and decides the replication plan
(paper §4.1).  Execution itself is the
:class:`~repro.core.controller.ClusterBFTController`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.config import ADVERSARY_STRONG, ClusterBFTConfig
from repro.compiler.jobspec import JobGraph, JobSpec
from repro.compiler.mr_compiler import CompileOptions, MRCompiler, compile_plan
from repro.core import graph_analyzer
from repro.core.instrument import InstrumentedPlan, instrument
from repro.dataflow.operators import VerifyOp
from repro.dataflow.piglatin import parse_script
from repro.dataflow.plan import LogicalPlan, VertexId


@dataclass
class PreparedScript:
    """Everything the job initiator needs to start submitting replicas."""

    plan: LogicalPlan  # original (uninstrumented) plan
    instrumented: InstrumentedPlan
    job_graph: JobGraph
    marked_vertices: list[VertexId]
    config: ClusterBFTConfig
    marker_scores: list[float] = field(default_factory=list)
    #: Whether output streams were auto-instrumented — recorded so a
    #: journal replay can re-prepare the exact same instrumented plan.
    include_output_points: bool = True

    def with_paths(self, mapping: dict[str, str]) -> "PreparedScript":
        """This script with each path it was prepared on renamed by
        ``mapping``.  Only the LOAD/STORE ops and the job paths are
        copied; everything else is path-independent and shared
        (DESIGN.md §26)."""
        plan = self.instrumented.plan.with_paths(mapping)
        return replace(
            self,
            plan=self.plan.with_paths(mapping),
            instrumented=replace(self.instrumented, plan=plan),
            job_graph=self.job_graph.with_paths(mapping),
        )

    def jobs_with_digests(self) -> list[int]:
        """Indices of jobs that emit digests (verifiable jobs)."""
        return [
            index
            for index, job in enumerate(self.job_graph.jobs)
            if job_has_verification(job)
        ]


def job_has_verification(job: JobSpec) -> bool:
    """True if any pipeline of the job contains a VerifyOp."""
    pipelines = [branch.pipeline for branch in job.branches]
    pipelines.append(job.reduce_pipeline)
    pipelines.append(job.post_limit_pipeline)
    return any(
        isinstance(stage.op, VerifyOp) for pipeline in pipelines for stage in pipeline
    )


def output_coverage(job: JobSpec) -> str | None:
    """The vp_id covering the job's *output stream*, or None.

    A VERIFIED job may only be committed (reused across reruns / written
    to the user-visible store path) when the digest quorum covered the
    very stream that was written out — i.e. the final pipeline stage is
    the verification point.
    """
    if job.is_map_only:
        vp_ids = set()
        for branch in job.branches:
            if not branch.pipeline or not isinstance(branch.pipeline[-1].op, VerifyOp):
                return None
            vp_ids.add(branch.pipeline[-1].op.vp_id)
        return vp_ids.pop() if len(vp_ids) == 1 else None
    if job.post_limit_pipeline:
        last = job.post_limit_pipeline[-1].op
        return last.vp_id if isinstance(last, VerifyOp) else None
    if job.fused_limit is not None:
        return None  # limit slices after the reduce pipeline's digest
    if job.reduce_pipeline and isinstance(job.reduce_pipeline[-1].op, VerifyOp):
        return job.reduce_pipeline[-1].op.vp_id
    return None


class RequestHandler:
    """Prepares client scripts for assured execution."""

    def __init__(self, config: ClusterBFTConfig) -> None:
        self.config = config.validate()

    def prepare(
        self,
        script: str | LogicalPlan,
        input_sizes: dict[str, int],
        explicit_points: list[VertexId] | None = None,
        include_output_points: bool = True,
        compile_options: CompileOptions | None = None,
        optimize_plan: bool = False,
    ) -> PreparedScript:
        """Parse (if needed), analyze, instrument and compile a script.

        ``explicit_points`` overrides the marker function — used by the
        §6.1 experiments that sweep digest positions by hand.  With
        ``optimize_plan`` the rewrite rules of
        :mod:`repro.dataflow.optimizer` run first (on a clone; explicit
        points refer to the *optimized* plan's vertices in that case).
        """
        plan = parse_script(script) if isinstance(script, str) else script
        plan.validate()
        if optimize_plan:
            from repro.dataflow.optimizer import optimize

            plan = plan.clone()
            optimize(plan)

        scores: list[float] = []
        if explicit_points is not None:
            marked = list(explicit_points)
        elif self.config.checkpoint_density > 0.0:
            # Expected-rerun-cost placement (checkpoint tier): pick the
            # points whose commits save the most recomputation on a
            # rerun, at the configured density, instead of the paper's
            # fixed-count marker.  Deterministic: a resumed run that
            # re-prepares the script derives the identical markers.
            ratios = graph_analyzer.input_ratios(plan, input_sizes)
            candidates = self.candidate_vertices(plan)
            result = graph_analyzer.mark_by_rerun_cost(
                plan, self.config.checkpoint_density, ratios, candidates
            )
            marked = result.marked
            scores = result.scores
        elif self.config.verification_points > 0:
            ratios = graph_analyzer.input_ratios(plan, input_sizes)
            candidates = self.candidate_vertices(plan)
            result = graph_analyzer.mark(
                plan, self.config.verification_points, ratios, candidates
            )
            marked = result.marked
            scores = result.scores
        else:
            marked = []

        instrumented = instrument(
            plan,
            marked,
            chunk_records=self.config.digest_chunk_records,
            include_outputs=include_output_points,
        )
        job_graph = compile_plan(instrumented.plan, compile_options)
        return PreparedScript(
            plan=plan,
            instrumented=instrumented,
            job_graph=job_graph,
            marked_vertices=marked,
            config=self.config,
            marker_scores=scores,
            include_output_points=include_output_points,
        )

    def candidate_vertices(self, plan: LogicalPlan) -> list[VertexId]:
        """Verification-point candidates under the configured adversary.

        Strong adversary: only vertices whose output crosses a *job
        boundary* — found by probe-compiling the plan (the compiler
        records which vertices get materialized to DFS).
        """
        if self.config.adversary == ADVERSARY_STRONG:
            probe = MRCompiler(plan.clone())
            probe.compile()
            return sorted(probe.boundary_vertices)
        return graph_analyzer.candidate_vertices(plan, self.config.adversary)
