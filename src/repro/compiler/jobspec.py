"""Compiled MapReduce job descriptions.

A :class:`JobGraph` is the unit ClusterBFT replicates: the *job
initiator* assigns each job a sub-graph id (sid) and submits ``r``
replicas of it (paper §4.1).  Specs are pure descriptions — execution
state lives in the MapReduce engine — so all replicas of a job can share
one spec object, and with it one binding: each map branch, and the
reduce side up to its first VerifyOp, is generated as one function when
the spec is built; a reduce-side stage left staged is bound to its
schema the first time it runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from repro.common.errors import CompileError
from repro.dataflow.expressions import Emitter
from repro.dataflow.operators import BlockingOperator, Stage, StreamingOperator, VerifyOp
from repro.dataflow.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compiler.combiner import CombinerSpec


@dataclass
class PipelineOp:
    """One streaming operator and its input schema."""

    op: StreamingOperator
    input_schema: Schema

    @cached_property
    def run(self) -> Stage:
        """The stage's input list to its output list, bound on first use
        (a stage fused into a generated function is never bound on its
        own)."""
        return self.op.bind(self.input_schema)


@dataclass
class MapBranch:
    """One input of a job: a DFS path plus the per-record map pipeline.

    ``tag`` is the blocking operator's input index (0 for the left side
    of a JOIN, 1 for the right; always 0 for single-input operators).
    The :class:`JobSpec` that owns the branch binds it: ``staged`` is the
    pipeline up to its last VerifyOp, whose taps need the stream, and
    ``run`` the one generated function for the rest (DESIGN.md §24).
    """

    input_path: str
    tag: int
    pipeline: list[PipelineOp] = field(default_factory=list)
    staged: list[PipelineOp] = field(default_factory=list, init=False, repr=False, compare=False)
    run: Callable[[list], list] = field(init=False, repr=False, compare=False)

    def bind(self, blocking: BlockingOperator | None, schemas: list[Schema], counts_only: bool) -> None:
        """Generate ``run``: the stages after the last VerifyOp as one
        comprehension yielding each output record (map-only job), its
        ``(key, record)`` (shuffle) or its key alone (``counts_only``)."""
        stages = enumerate(self.pipeline, 1)
        split = max((n for n, stage in stages if isinstance(stage.op, VerifyOp)), default=0)
        self.staged = self.pipeline[:split]
        emitter = Emitter(Schema([]))  # each stage and the key set theirs
        clauses = ""
        for stage in self.pipeline[split:]:
            emitter.schema = stage.input_schema
            clauses += stage.op.clause(emitter)
        head = "r"
        if blocking is not None:
            emitter.schema = schemas[self.tag]
            key = blocking.emit_key(emitter, self.tag)
            head = key if counts_only else f"({key}, r)"
        self.run = emitter.function(f"lambda records: [{head} for r in records{clauses}]")


@dataclass
class JobSpec:
    """One MapReduce job compiled from a plan segment."""

    name: str
    branches: list[MapBranch]
    blocking: BlockingOperator | None  # None => map-only job
    blocking_input_schemas: list[Schema] = field(default_factory=list)
    reduce_pipeline: list[PipelineOp] = field(default_factory=list)
    fused_limit: int | None = None  # LIMIT fused into an ORDER job
    #: Streaming ops applied *after* the fused limit (e.g. a projection
    #: or verification point placed downstream of LIMIT in the plan).
    post_limit_pipeline: list[PipelineOp] = field(default_factory=list)
    output_path: str = ""
    num_reducers: int = 1
    output_is_temp: bool = False
    #: Map-side combining plan (algebraic GROUP+FOREACH jobs only); the
    #: branches are generated for it, so it is fixed at construction.
    combiner: "CombinerSpec | None" = None
    #: A job without a combiner: the blocking operator's output and the
    #: reduce-pipeline stages before the first VerifyOp as one generated
    #: function of ``(ordered_keys, groups)`` (DESIGN.md §27).
    reduce: Callable[[list, dict], list] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The reduce-pipeline stages ``run_pipeline`` runs after ``reduce``
    #: (from the first VerifyOp on), or after the combiner's merge (all
    #: but the FOREACH the combiner computes).
    reduce_staged: list[PipelineOp] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        counts_only = self.combiner is not None and self.combiner.counts_only
        for branch in self.branches:
            branch.bind(self.blocking, self.blocking_input_schemas, counts_only)
        if self.combiner is not None:
            self.reduce_staged = self.reduce_pipeline[1:]
        elif self.blocking is not None:
            self._bind_reduce()

    def _bind_reduce(self) -> None:
        """Generate ``reduce``.  A tap sorts and digests the stream at its
        position, so the split goes at the *first* VerifyOp here."""
        stages = enumerate(self.reduce_pipeline)
        split = next(
            (n for n, stage in stages if isinstance(stage.op, VerifyOp)),
            len(self.reduce_pipeline),
        )
        self.reduce_staged = self.reduce_pipeline[split:]
        emitter = Emitter(Schema([]))  # each stage sets its own
        clauses = self.blocking.reduce_clause(emitter, self.blocking_input_schemas)
        for stage in self.reduce_pipeline[:split]:
            emitter.schema = stage.input_schema
            clauses += stage.op.clause(emitter)
        self.reduce = emitter.function(f"lambda keys, groups: [r for key in keys{clauses}]")

    @property
    def is_map_only(self) -> bool:
        return self.blocking is None

    def input_paths(self) -> list[str]:
        return [branch.input_path for branch in self.branches]

    def describe(self) -> str:
        ins = ", ".join(self.input_paths())
        kind = "map-only" if self.is_map_only else self.blocking.kind
        return f"{self.name}: [{ins}] -{kind}-> {self.output_path}"


@dataclass
class JobGraph:
    """All jobs compiled from one script, with data dependencies."""

    jobs: list[JobSpec] = field(default_factory=list)

    def with_paths(self, mapping: dict[str, str]) -> "JobGraph":
        """A copy whose job input and output paths are renamed by
        ``mapping`` (temp paths it does not name stay).  Specs and
        branches are shallow copies sharing every stage, generated
        branch function and combiner: nothing is bound again."""
        jobs = []
        for job in self.jobs:
            rebased = copy.copy(job)  # not __post_init__: branches stay bound
            rebased.branches = [copy.copy(branch) for branch in job.branches]
            for branch in rebased.branches:
                branch.input_path = mapping.get(branch.input_path, branch.input_path)
            rebased.output_path = mapping.get(job.output_path, job.output_path)
            jobs.append(rebased)
        return JobGraph(jobs)

    def internal_paths(self) -> set[str]:
        """Paths produced by jobs in this graph (replica-scoped at runtime,
        as opposed to pre-existing external inputs)."""
        return {job.output_path for job in self.jobs}

    def dependencies(self) -> dict[int, set[int]]:
        """Map job index -> indices of jobs it reads output from."""
        producers = {job.output_path: i for i, job in enumerate(self.jobs)}
        deps: dict[int, set[int]] = {i: set() for i in range(len(self.jobs))}
        for i, job in enumerate(self.jobs):
            for path in job.input_paths():
                if path in producers and producers[path] != i:
                    deps[i].add(producers[path])
        return deps

    def topological_order(self) -> list[int]:
        """Deterministic execution order of job indices."""
        deps = self.dependencies()
        remaining = set(range(len(self.jobs)))
        order: list[int] = []
        while remaining:
            ready = sorted(i for i in remaining if deps[i] <= set(order))
            if not ready:
                raise CompileError("job graph contains a dependency cycle")
            order.extend(ready)
            remaining -= set(ready)
        return order

    def describe(self) -> str:
        deps = self.dependencies()
        lines = []
        for i in self.topological_order():
            dep = f" (after {sorted(deps[i])})" if deps[i] else ""
            lines.append(f"#{i} {self.jobs[i].describe()}{dep}")
        return "\n".join(lines)
