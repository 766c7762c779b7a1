"""Logical-plan optimizer: Pig-style rewrite rules.

Semantics-preserving rewrites applied before compilation:

* **merge-filters** — ``FILTER p1`` feeding only ``FILTER p2`` becomes
  ``FILTER (p1 AND p2)`` while that stays within the depth cap;
* **filter-before-order** — a filter after a global sort runs *before*
  it (sorting records that are about to be dropped is pure waste, and
  the filter preserves relative order);
* **filter-through-union** — a filter on a union's (sole) output runs on
  each input branch;
* **filter-into-join** — a filter whose predicate touches only one join
  input runs on that input, shrinking the shuffled side.

Each rule fires only in shapes where it cannot change results (single-
consumer edges, resolvable references); ``optimize`` loops to a fixed
point and reports which rules fired.  The optimizer mutates the plan it
is given — pass a ``clone()`` to keep the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import PlanError, SchemaError
from repro.dataflow import expressions as ex
from repro.dataflow.expressions import (
    BagProject,
    BinOp,
    Expr,
    FieldRef,
    FuncCall,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.dataflow.operators import (
    FilterOp,
    JoinOp,
    OrderOp,
    UnionOp,
)
from repro.dataflow.plan import LogicalPlan, VertexId


@dataclass
class OptimizeReport:
    """Which rules fired, in order."""

    applied: list[str] = field(default_factory=list)

    def count(self, rule: str) -> int:
        return self.applied.count(rule)


def rewrite_refs(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rebuild an expression with field references renamed."""
    if isinstance(expr, FieldRef):
        return FieldRef(mapping.get(expr.name, expr.name))
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            rewrite_refs(expr.left, mapping),
            rewrite_refs(expr.right, mapping),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, rewrite_refs(expr.operand, mapping))
    if isinstance(expr, IsNull):
        return IsNull(rewrite_refs(expr.operand, mapping), expr.negate)
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name, tuple(rewrite_refs(a, mapping) for a in expr.args)
        )
    if isinstance(expr, BagProject):
        return BagProject(rewrite_refs(expr.bag, mapping), expr.field)
    return expr


class Optimizer:
    """Applies the rewrite rules to one plan."""

    MAX_PASSES = 20

    def __init__(self, plan: LogicalPlan) -> None:
        self.plan = plan
        self.report = OptimizeReport()

    def optimize(self) -> OptimizeReport:
        self.plan.validate()
        for _ in range(self.MAX_PASSES):
            if not self._one_pass():
                break
        self.plan.validate()
        return self.report

    def _one_pass(self) -> bool:
        for vid in self.plan.topological_order():
            if vid not in self.plan.vertices():
                continue  # removed by an earlier rewrite this pass
            op = self.plan.op(vid)
            if not isinstance(op, FilterOp):
                continue
            if self._merge_filters(vid, op):
                return True
            if self._filter_before_order(vid, op):
                return True
            if self._filter_through_union(vid, op):
                return True
            if self._filter_into_join(vid, op):
                return True
        return False

    # ------------------------------------------------------------------
    # rules (each: vid is a FilterOp vertex; return True if rewritten)
    # ------------------------------------------------------------------

    def _merge_filters(self, vid: VertexId, op: FilterOp) -> bool:
        parent = self.plan.inputs(vid)[0]
        parent_op = self.plan.op(parent)
        if not isinstance(parent_op, FilterOp):
            return False
        if self.plan.outputs(parent) != [vid]:
            return False  # parent feeds someone else too
        predicate = ex.and_(parent_op.predicate, op.predicate)
        try:  # stop where the `and` chain would pass expressions.MAX_DEPTH
            predicate.resolve(self.plan.schema_of(self.plan.inputs(parent)[0]))
        except PlanError:
            return False
        merged = FilterOp(predicate, alias=op.alias or parent_op.alias)
        self.plan.replace_op(vid, merged)
        self.plan.set_inputs(vid, self.plan.inputs(parent))
        self.plan.remove_vertex(parent)
        self.report.applied.append("merge-filters")
        return True

    def _filter_before_order(self, vid: VertexId, op: FilterOp) -> bool:
        parent = self.plan.inputs(vid)[0]
        parent_op = self.plan.op(parent)
        if not isinstance(parent_op, OrderOp):
            return False
        if self.plan.outputs(parent) != [vid]:
            return False
        grandparents = self.plan.inputs(parent)
        consumers = self.plan.outputs(vid)
        # Rewire: gp -> filter -> order -> consumers.
        self.plan.set_inputs(vid, grandparents)
        self.plan.set_inputs(parent, [vid])
        for consumer in consumers:
            self.plan.set_inputs(
                consumer,
                [parent if p == vid else p for p in self.plan.inputs(consumer)],
            )
        self.report.applied.append("filter-before-order")
        return True

    def _filter_through_union(self, vid: VertexId, op: FilterOp) -> bool:
        parent = self.plan.inputs(vid)[0]
        parent_op = self.plan.op(parent)
        if not isinstance(parent_op, UnionOp):
            return False
        if self.plan.outputs(parent) != [vid]:
            return False
        branches = self.plan.inputs(parent)
        # The union schema is its first input's; predicates must resolve
        # against every branch (positions align, names may differ — use
        # positional references to stay branch-agnostic).
        union_schema = self.plan.schema_of(parent)
        try:
            mapping = {
                ref: f"${union_schema.index_of(ref)}"
                for ref in op.predicate.references()
            }
        except SchemaError:
            return False
        positional = rewrite_refs(op.predicate, mapping)
        new_branches = []
        for branch in branches:
            branch_filter = self.plan.add(
                FilterOp(positional, alias=op.alias), [branch]
            )
            new_branches.append(branch_filter)
        self.plan.set_inputs(parent, new_branches)
        consumers = self.plan.outputs(vid)
        for consumer in consumers:
            self.plan.set_inputs(
                consumer,
                [parent if p == vid else p for p in self.plan.inputs(consumer)],
            )
        self.plan.set_inputs(vid, [])
        self.plan.remove_vertex(vid)
        self.report.applied.append("filter-through-union")
        return True

    def _filter_into_join(self, vid: VertexId, op: FilterOp) -> bool:
        parent = self.plan.inputs(vid)[0]
        parent_op = self.plan.op(parent)
        if not isinstance(parent_op, JoinOp):
            return False
        if self.plan.outputs(parent) != [vid]:
            return False
        join_schema = self.plan.schema_of(parent)
        left_vid, right_vid = self.plan.inputs(parent)
        left_arity = len(self.plan.schema_of(left_vid))
        sides = set()
        positions: dict[str, int] = {}
        try:
            for ref in op.predicate.references():
                index = join_schema.index_of(ref)
                positions[ref] = index
                sides.add(0 if index < left_arity else 1)
        except SchemaError:
            return False
        if len(sides) != 1:
            return False  # touches both sides (or neither): leave it
        side = sides.pop()
        offset = 0 if side == 0 else left_arity
        mapping = {ref: f"${index - offset}" for ref, index in positions.items()}
        pushed = FilterOp(rewrite_refs(op.predicate, mapping), alias=op.alias)
        source = left_vid if side == 0 else right_vid
        pushed_vid = self.plan.add(pushed, [source])
        new_inputs = list(self.plan.inputs(parent))
        new_inputs[side] = pushed_vid
        self.plan.set_inputs(parent, new_inputs)
        consumers = self.plan.outputs(vid)
        for consumer in consumers:
            self.plan.set_inputs(
                consumer,
                [parent if p == vid else p for p in self.plan.inputs(consumer)],
            )
        self.plan.set_inputs(vid, [])
        self.plan.remove_vertex(vid)
        self.report.applied.append("filter-into-join")
        return True


def optimize(plan: LogicalPlan) -> OptimizeReport:
    """Optimize ``plan`` in place; returns the applied-rule report."""
    return Optimizer(plan).optimize()
