"""Logical plan → MapReduce job graph.

Implements Pig's compilation scheme on our operator set:

* streaming operators (FILTER, FOREACH, VERIFY, UNION) extend the map
  (or reduce) pipeline of the current job segment;
* blocking operators (GROUP, JOIN, DISTINCT, ORDER, LIMIT) force a
  shuffle: they become the reduce phase of a job;
* two blocking operators in sequence split into two jobs connected by a
  temporary DFS file — the "job chain" the paper's challenge C2 talks
  about;
* a vertex with several consumers is materialized once and re-read, so
  diamond plans (the airline multi-store query, paper Fig. 8 (iii))
  compile correctly;
* LIMIT directly following a single-reducer blocking job is fused into
  that job to preserve sort order (Pig does the same).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import CompileError
from repro.dataflow.operators import (
    BlockingOperator,
    LimitOp,
    LoadOp,
    StoreOp,
    StreamingOperator,
    UnionOp,
)
from repro.dataflow.plan import LogicalPlan, VertexId
from repro.dataflow.schema import Schema
from repro.compiler.combiner import build_combiner
from repro.compiler.jobspec import JobGraph, JobSpec, MapBranch, PipelineOp


@dataclass(frozen=True)
class CompileOptions:
    """Knobs for the compiler."""

    num_reducers: int = 4  # paper: replicas share the same reducer count
    temp_prefix: str = "tmp"
    #: Map-side combining for algebraic GROUP+FOREACH jobs (Pig's
    #: combiner optimization); see repro.compiler.combiner for the
    #: eligibility rules that keep digests deterministic.
    enable_combiners: bool = True

    def validate(self) -> "CompileOptions":
        if self.num_reducers < 1:
            raise CompileError("num_reducers must be >= 1")
        return self


@dataclass
class _Segment:
    """A job under construction, cursor at some plan vertex."""

    branches: list[MapBranch]
    blocking: BlockingOperator | None = None
    blocking_schemas: list[Schema] = field(default_factory=list)
    reduce_pipeline: list[PipelineOp] = field(default_factory=list)
    fused_limit: int | None = None
    post_limit_pipeline: list[PipelineOp] = field(default_factory=list)
    name_parts: list[str] = field(default_factory=list)

    def copy(self) -> "_Segment":
        return _Segment(
            branches=[
                MapBranch(b.input_path, b.tag, list(b.pipeline))
                for b in self.branches
            ],
            blocking=self.blocking,
            blocking_schemas=list(self.blocking_schemas),
            reduce_pipeline=list(self.reduce_pipeline),
            fused_limit=self.fused_limit,
            post_limit_pipeline=list(self.post_limit_pipeline),
            name_parts=list(self.name_parts),
        )


class MRCompiler:
    """Compiles one validated :class:`LogicalPlan` into a :class:`JobGraph`."""

    def __init__(self, plan: LogicalPlan, options: CompileOptions | None = None) -> None:
        self.plan = plan
        self.options = (options or CompileOptions()).validate()
        self.graph = JobGraph()
        self._segments: dict[VertexId, _Segment] = {}
        self._temp_counter = 0
        #: Vertices whose output stream becomes a job output (temp file
        #: or store) — the "data-flow between jobs" the strong-adversary
        #: model allows verification points on.
        self.boundary_vertices: set[VertexId] = set()

    # ------------------------------------------------------------------

    def compile(self) -> JobGraph:
        self.plan.validate()
        for vid in self.plan.topological_order():
            self._visit(vid)
        if not self.graph.jobs:
            raise CompileError("plan compiled to zero jobs")
        return self.graph

    # ------------------------------------------------------------------

    def _visit(self, vid: VertexId) -> None:
        op = self.plan.op(vid)
        if isinstance(op, LoadOp):
            segment = _Segment(
                branches=[MapBranch(op.path, tag=0)],
                name_parts=[op.alias or "load"],
            )
        elif isinstance(op, StoreOp):
            self.boundary_vertices.add(self.plan.inputs(vid)[0])
            self._finish(self._take_parent(vid, 0), op.path, temp=False)
            return
        elif isinstance(op, UnionOp):
            segment = self._compile_union(vid, op)
        elif isinstance(op, LimitOp):
            segment = self._compile_limit(vid, op)
        elif isinstance(op, BlockingOperator):
            segment = self._compile_blocking(vid, op)
        elif isinstance(op, StreamingOperator):
            segment = self._take_parent(vid, 0)
            parent_schema = self.plan.schema_of(self.plan.inputs(vid)[0])
            stage = PipelineOp(op, parent_schema)
            if segment.blocking is None:
                for branch in segment.branches:
                    branch.pipeline.append(stage)
            elif segment.fused_limit is not None:
                segment.post_limit_pipeline.append(stage)
            else:
                segment.reduce_pipeline.append(stage)
            if op.alias:
                segment.name_parts.append(op.alias)
        else:
            raise CompileError(f"cannot compile operator {op!r}")

        # A vertex consumed by several downstream operators must be
        # materialized so each consumer re-reads a stable copy.
        if len(self.plan.outputs(vid)) > 1:
            self.boundary_vertices.add(vid)
            segment = self._materialize(segment)
        self._segments[vid] = segment

    # -- operator cases --------------------------------------------------

    def _compile_union(self, vid: VertexId, op: UnionOp) -> _Segment:
        parents = self.plan.inputs(vid)
        merged = _Segment(branches=[], name_parts=[op.alias or "union"])
        for index in range(len(parents)):
            parent_segment = self._take_parent(vid, index)
            if parent_segment.blocking is not None:
                self.boundary_vertices.add(parents[index])
                parent_segment = self._materialize(parent_segment)
            for branch in parent_segment.branches:
                branch.tag = 0  # union collapses tags
                merged.branches.append(branch)
        return merged

    def _compile_blocking(self, vid: VertexId, op: BlockingOperator) -> _Segment:
        parents = self.plan.inputs(vid)
        branches: list[MapBranch] = []
        for index in range(len(parents)):
            parent_segment = self._take_parent(vid, index)
            if parent_segment.blocking is not None:
                self.boundary_vertices.add(parents[index])
                parent_segment = self._materialize(parent_segment)
            for branch in parent_segment.branches:
                branch.tag = index
                branches.append(branch)
        return _Segment(
            branches=branches,
            blocking=op,
            blocking_schemas=self.plan.input_schemas_of(vid),
            name_parts=[op.alias or op.kind],
        )

    def _compile_limit(self, vid: VertexId, op: LimitOp) -> _Segment:
        segment = self._take_parent(vid, 0)
        single_reducer = (
            segment.blocking is not None
            and segment.blocking.preferred_reducers() == 1
            # A second LIMIT separated from the first by other operators
            # cannot be merged by taking the min; fall through to a
            # standalone limit job in that (rare) shape.
            and not segment.post_limit_pipeline
        )
        if single_reducer:
            # Fuse: slice the (ordered) reduce output of the current job.
            if segment.fused_limit is None:
                segment.fused_limit = op.limit
            else:
                segment.fused_limit = min(segment.fused_limit, op.limit)
            segment.name_parts.append(op.alias or "limit")
            return segment
        if segment.blocking is not None:
            self.boundary_vertices.add(self.plan.inputs(vid)[0])
            segment = self._materialize(segment)
        return _Segment(
            branches=segment.branches,
            blocking=op,
            blocking_schemas=self.plan.input_schemas_of(vid),
            name_parts=[op.alias or "limit"],
        )

    # -- segment plumbing -------------------------------------------------

    def _take_parent(self, vid: VertexId, input_index: int) -> _Segment:
        parent = self.plan.inputs(vid)[input_index]
        try:
            segment = self._segments[parent]
        except KeyError:
            raise CompileError(f"parent vertex {parent} not yet compiled") from None
        # Copy so sibling consumers never share mutable branch lists.
        return segment.copy()

    def _materialize(self, segment: _Segment) -> _Segment:
        """Finish ``segment`` into a temp file; return a fresh segment
        reading that file."""
        path = self._fresh_temp()
        self._finish(segment, path, temp=True)
        return _Segment(
            branches=[MapBranch(path, tag=0)],
            name_parts=list(segment.name_parts),
        )

    def _finish(self, segment: _Segment, output_path: str, temp: bool) -> None:
        if segment.blocking is None:
            reducers = 0
        else:
            reducers = (
                segment.blocking.preferred_reducers() or self.options.num_reducers
            )
        name = "+".join(segment.name_parts) or "job"
        combiner = None
        if self.options.enable_combiners:
            combiner = build_combiner(segment.blocking, segment.branches, segment.reduce_pipeline)
        spec = JobSpec(
            name=f"{name}@{len(self.graph.jobs)}",
            branches=segment.branches,
            blocking=segment.blocking,
            blocking_input_schemas=segment.blocking_schemas,
            reduce_pipeline=segment.reduce_pipeline,
            fused_limit=segment.fused_limit,
            post_limit_pipeline=segment.post_limit_pipeline,
            output_path=output_path,
            num_reducers=max(reducers, 0) if segment.blocking is None else reducers,
            output_is_temp=temp,
            combiner=combiner,
        )
        self.graph.jobs.append(spec)

    def _fresh_temp(self) -> str:
        path = f"{self.options.temp_prefix}/part-{self._temp_counter:04d}"
        self._temp_counter += 1
        return path


def compile_plan(plan: LogicalPlan, options: CompileOptions | None = None) -> JobGraph:
    """Convenience wrapper: compile a validated plan to a job graph."""
    return MRCompiler(plan, options).compile()
