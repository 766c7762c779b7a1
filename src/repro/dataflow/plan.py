"""Logical plan: the acyclic data-flow graph of operators.

This is the structure the paper's *graph analyzer* works on (Fig. 4):
vertices are operators, edges carry records downstream.  The plan owns
vertex identity, edge order (JOIN input 0 vs 1), schema inference, and
the ``level`` function from the paper's Fig. 3 notation table.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.common.errors import PlanError, SchemaError
from repro.dataflow.operators import JoinOp, LoadOp, Operator, StoreOp, UnionOp
from repro.dataflow.schema import Schema

VertexId = int


@dataclass(frozen=True)
class PlanProblem:
    """One defect found by the non-raising validation pass.

    ``kind`` is one of ``cycle``, ``arity``, ``schema``, ``no-store`` or
    ``dangling``; ``error`` carries the exception :meth:`LogicalPlan.validate`
    would raise for it (so the raising and reporting paths cannot drift).
    """

    kind: str
    vid: VertexId | None
    message: str
    error: Exception


class LogicalPlan:
    """A DAG of logical operators.

    Vertices are added with explicit input lists; edges record input
    position so multi-input operators (JOIN, UNION) stay unambiguous.
    """

    def __init__(self) -> None:
        self._ops: dict[VertexId, Operator] = {}
        self._inputs: dict[VertexId, list[VertexId]] = {}
        self._outputs: dict[VertexId, list[VertexId]] = {}
        self._next_id = 0
        self._schemas: dict[VertexId, Schema] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add(self, op: Operator, inputs: list[VertexId] | None = None) -> VertexId:
        inputs = list(inputs or [])
        for src in inputs:
            if src not in self._ops:
                raise PlanError(f"unknown input vertex: {src}")
        vid = self._next_id
        self._next_id += 1
        self._ops[vid] = op
        self._inputs[vid] = inputs
        self._outputs[vid] = []
        for src in inputs:
            self._outputs[src].append(vid)
        self._schemas.clear()  # invalidate inference cache
        return vid

    def insert_after(self, vid: VertexId, op: Operator) -> VertexId:
        """Splice a unary operator between ``vid`` and all its consumers.

        Used by instrumentation to place a verification point on a
        vertex's output stream.
        """
        if vid not in self._ops:
            raise PlanError(f"unknown vertex: {vid}")
        consumers = list(self._outputs[vid])
        new_vid = self._next_id
        self._next_id += 1
        self._ops[new_vid] = op
        self._inputs[new_vid] = [vid]
        self._outputs[new_vid] = consumers
        self._outputs[vid] = [new_vid]
        for consumer in consumers:
            self._inputs[consumer] = [
                new_vid if parent == vid else parent
                for parent in self._inputs[consumer]
            ]
        self._schemas.clear()
        return new_vid

    def set_inputs(self, vid: VertexId, new_inputs: list[VertexId]) -> None:
        """Rewire a vertex's inputs (optimizer primitive).

        The caller is responsible for keeping the plan acyclic and
        schema-valid — ``validate()`` re-checks both.
        """
        if vid not in self._ops:
            raise PlanError(f"unknown vertex: {vid}")
        for parent in new_inputs:
            if parent not in self._ops:
                raise PlanError(f"unknown input vertex: {parent}")
        for parent in self._inputs[vid]:
            self._outputs[parent] = [
                child for child in self._outputs[parent] if child != vid
            ]
        self._inputs[vid] = list(new_inputs)
        for parent in new_inputs:
            self._outputs[parent].append(vid)
        self._schemas.clear()

    def replace_op(self, vid: VertexId, op: Operator) -> None:
        """Substitute the operator at a vertex (same arity expected)."""
        if vid not in self._ops:
            raise PlanError(f"unknown vertex: {vid}")
        self._ops[vid] = op
        self._schemas.clear()

    def remove_vertex(self, vid: VertexId) -> None:
        """Delete a disconnected vertex (no inputs wired to it, no
        outputs from it).  The optimizer bypasses a vertex first, then
        removes it."""
        if self._outputs.get(vid):
            raise PlanError(f"vertex {vid} still has consumers")
        for parent in self._inputs.get(vid, []):
            self._outputs[parent] = [
                child for child in self._outputs[parent] if child != vid
            ]
        self._inputs.pop(vid, None)
        self._outputs.pop(vid, None)
        self._ops.pop(vid, None)
        self._schemas.clear()

    def clone(self) -> "LogicalPlan":
        """Structural copy sharing the (stateless) operator objects."""
        copy = LogicalPlan()
        copy._ops = dict(self._ops)
        copy._inputs = {vid: list(parents) for vid, parents in self._inputs.items()}
        copy._outputs = {vid: list(children) for vid, children in self._outputs.items()}
        copy._next_id = self._next_id
        return copy

    def with_paths(self, mapping: dict[str, str]) -> "LogicalPlan":
        """A clone whose LOAD and STORE paths are renamed by ``mapping``
        (paths it does not name stay).  A renamed operator is a copy that
        keeps its alias, schema and source line; every other operator
        is shared."""
        rebased = self.clone()
        for vid, op in self._ops.items():
            if isinstance(op, (LoadOp, StoreOp)) and op.path in mapping:
                renamed = copy.copy(op)
                renamed.path = mapping[op.path]
                rebased._ops[vid] = renamed
        return rebased

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    def vertices(self) -> list[VertexId]:
        return list(self._ops)

    def op(self, vid: VertexId) -> Operator:
        try:
            return self._ops[vid]
        except KeyError:
            raise PlanError(f"unknown vertex: {vid}") from None

    def inputs(self, vid: VertexId) -> list[VertexId]:
        return list(self._inputs[vid])

    def outputs(self, vid: VertexId) -> list[VertexId]:
        return list(self._outputs[vid])

    def parents(self, vid: VertexId) -> list[VertexId]:
        """Paper terminology alias for :meth:`inputs`."""
        return self.inputs(vid)

    def sources(self) -> list[VertexId]:
        return [vid for vid, op in self._ops.items() if op.is_source]

    def sinks(self) -> list[VertexId]:
        return [vid for vid, op in self._ops.items() if op.is_sink]

    def find_by_alias(self, alias: str) -> VertexId:
        matches = [vid for vid, op in self._ops.items() if op.alias == alias]
        if not matches:
            raise PlanError(f"no vertex with alias {alias!r}")
        # Later definitions shadow earlier ones (Pig alias reassignment).
        return matches[-1]

    def topological_order(self) -> list[VertexId]:
        """Deterministic topological order (Kahn's algorithm, FIFO by id)."""
        in_degree = {vid: len(parents) for vid, parents in self._inputs.items()}
        ready = sorted(vid for vid, deg in in_degree.items() if deg == 0)
        order: list[VertexId] = []
        while ready:
            vid = ready.pop(0)
            order.append(vid)
            newly_ready = []
            for child in self._outputs[vid]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    newly_ready.append(child)
            ready = sorted(ready + newly_ready)
        if len(order) != len(self._ops):
            raise PlanError("plan contains a cycle")
        return order

    def levels(self) -> dict[VertexId, int]:
        """Paper Fig. 3: ``level(v) = 1`` for LOAD, else
        ``max over parents of (1 + level(parent))``."""
        levels: dict[VertexId, int] = {}
        for vid in self.topological_order():
            parents = self._inputs[vid]
            if not parents:
                levels[vid] = 1
            else:
                levels[vid] = max(1 + levels[p] for p in parents)
        return levels

    # ------------------------------------------------------------------
    # validation & schemas
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structure and infer every schema (raises on problems)."""
        problems = self.problems()
        if problems:
            raise problems[0].error

    def problems(self, check_schemas: bool = True) -> list[PlanProblem]:
        """Non-raising validation: every structural and schema defect.

        The static plan checker (:mod:`repro.lint.plan_rules`) consumes
        this to report *all* defects with locations instead of crashing
        on the first; :meth:`validate` raises the first one, preserving
        the original exception types.
        """
        problems: list[PlanProblem] = []
        try:
            order = self.topological_order()
        except PlanError as exc:
            return [PlanProblem("cycle", None, str(exc), exc)]

        def arity(vid: VertexId, message: str) -> None:
            problems.append(PlanProblem("arity", vid, message, PlanError(message)))

        failed: set[VertexId] = set()
        for vid in order:
            op = self._ops[vid]
            parents = self._inputs[vid]
            ok = True
            if op.is_source and parents:
                arity(vid, f"source {op!r} must have no inputs")
                ok = False
            if not op.is_source and not parents:
                arity(vid, f"{op!r} has no inputs")
                ok = False
            if isinstance(op, JoinOp) and len(parents) != 2:
                arity(vid, f"JOIN {op.alias!r} needs exactly 2 inputs")
                ok = False
            if isinstance(op, UnionOp) and len(parents) < 2:
                arity(vid, f"UNION {op.alias!r} needs >= 2 inputs")
                ok = False
            if op.is_sink and self._outputs[vid]:
                arity(vid, f"sink {op!r} must have no outputs")
                ok = False
            if not ok or any(parent in failed for parent in parents):
                # Schema inference of a structurally-broken vertex (or of
                # a descendant of one) would only duplicate the root cause.
                failed.add(vid)
                continue
            if check_schemas:
                try:
                    self.schema_of(vid)
                except (SchemaError, PlanError) as exc:
                    failed.add(vid)
                    problems.append(PlanProblem("schema", vid, str(exc), exc))

        sinks = self.sinks()
        if not sinks:
            message = "plan has no STORE"
            problems.append(PlanProblem("no-store", None, message, PlanError(message)))
        # Every non-sink vertex must reach a sink (no dangling branches).
        reaches: set[VertexId] = set(sinks)
        for vid in reversed(order):
            if any(child in reaches for child in self._outputs[vid]):
                reaches.add(vid)
        dangling = [vid for vid in order if vid not in reaches]
        if dangling:
            names = ", ".join(self._ops[vid].describe() for vid in dangling)
            shared = PlanError(f"vertices do not reach any STORE: {names}")
            for vid in dangling:
                problems.append(
                    PlanProblem(
                        "dangling",
                        vid,
                        f"{self._ops[vid].describe()} does not reach any STORE",
                        shared,
                    )
                )
        return problems

    def schema_of(self, vid: VertexId) -> Schema:
        if vid not in self._schemas:
            op = self._ops[vid]
            parent_schemas = [self.schema_of(p) for p in self._inputs[vid]]
            self._schemas[vid] = op.derive_schema(parent_schemas)
        return self._schemas[vid]

    def input_schemas_of(self, vid: VertexId) -> list[Schema]:
        return [self.schema_of(p) for p in self._inputs[vid]]

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable plan listing in topological order."""
        lines = []
        for vid in self.topological_order():
            op = self._ops[vid]
            parents = self._inputs[vid]
            src = f" <- {parents}" if parents else ""
            alias = f" ({op.alias})" if op.alias else ""
            lines.append(f"[{vid}] {op.describe()}{alias}{src}")
        return "\n".join(lines)

    def load_paths(self) -> dict[VertexId, str]:
        """Map of LOAD vertex -> input path (for the graph analyzer)."""
        return {
            vid: op.path
            for vid, op in self._ops.items()
            if isinstance(op, LoadOp)
        }
