"""Compiled MapReduce job descriptions.

A :class:`JobGraph` is the unit ClusterBFT replicates: the *job
initiator* assigns each job a sub-graph id (sid) and submits ``r``
replicas of it (paper §4.1).  Specs are pure descriptions — execution
state lives in the MapReduce engine — so all replicas of a job can share
one spec object, and with it one binding: each pipeline stage and each
map branch's reduce key is bound to its schema when the spec is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import CompileError
from repro.dataflow.expressions import Bound
from repro.dataflow.operators import BlockingOperator, Stage, StreamingOperator
from repro.dataflow.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compiler.combiner import CombinerSpec


@dataclass
class PipelineOp:
    """One streaming operator bound to its input schema at compile time;
    ``run`` maps the stage's input list to its output list."""

    op: StreamingOperator
    input_schema: Schema
    run: Stage = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.run = self.op.bind(self.input_schema)


@dataclass
class MapBranch:
    """One input of a job: a DFS path plus the per-record map pipeline.

    ``tag`` is the blocking operator's input index (0 for the left side
    of a JOIN, 1 for the right; always 0 for single-input operators).
    ``key`` is the reduce key of one map output record, bound by the
    :class:`JobSpec` that owns the branch (None in a map-only job).
    """

    input_path: str
    tag: int
    pipeline: list[PipelineOp] = field(default_factory=list)
    key: Bound | None = field(default=None, repr=False, compare=False)


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
    #: Map-side combining plan (algebraic GROUP+FOREACH jobs only).
    combiner: "CombinerSpec | None" = None

    def __post_init__(self) -> None:
        if self.blocking is not None:
            for branch in self.branches:
                branch.key = self.blocking.bind_key(
                    branch.tag, self.blocking_input_schemas
                )

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

    def final_outputs(self) -> list[str]:
        """User-visible store paths (non-temporary outputs)."""
        return [job.output_path for job in self.jobs if not job.output_is_temp]

    def describe(self) -> str:
        deps = self.dependencies()
        lines = []
        for i in self.topological_order():
            dep = f" (after {sorted(deps[i])})" if deps[i] else ""
            lines.append(f"#{i} {self.jobs[i].describe()}{dep}")
        return "\n".join(lines)
