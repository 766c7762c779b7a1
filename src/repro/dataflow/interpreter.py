"""Local reference interpreter for logical plans.

Evaluates a plan directly — no MapReduce, no simulation — and is used as
the semantic oracle in tests: the distributed execution must produce
exactly the records (and therefore digests) this interpreter produces.
It binds operators through the same ``bind`` / ``bind_key`` methods the
MapReduce compiler uses; the tests check those binders against a
reference evaluator of their own.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.common.errors import PlanError
from repro.common.records import Record
from repro.dataflow.operators import (
    BlockingOperator,
    LimitOp,
    LoadOp,
    OrderOp,
    StoreOp,
    StreamingOperator,
    UnionOp,
)
from repro.dataflow.plan import LogicalPlan, VertexId
from repro.storage.dfs import TrustedDFS


def interpret(
    plan: LogicalPlan,
    dfs: TrustedDFS | None = None,
    inputs: Mapping[str, list[Record]] | None = None,
    precheck: bool = False,
) -> dict[str, list[Record]]:
    """Evaluate ``plan``; return ``{store_path: records}``.

    Input files resolve from ``inputs`` first, then from ``dfs``.
    When ``dfs`` is given, outputs are also written back to it.

    With ``precheck=True`` the static plan checker runs first and a
    defective plan raises :class:`repro.lint.plan_rules.PlanCheckError`
    listing *every* defect with operator locations, instead of whichever
    single validation error :meth:`~LogicalPlan.validate` hits first.
    """
    if precheck:
        # Imported lazily: the interpreter must not depend on the lint
        # subsystem unless the caller opts into prechecking.
        from repro.lint.plan_rules import precheck_plan

        precheck_plan(plan)
    plan.validate()
    inputs = inputs or {}
    results: dict[VertexId, list[Record]] = {}
    outputs: dict[str, list[Record]] = {}

    for vid in plan.topological_order():
        op = plan.op(vid)
        parent_ids = plan.inputs(vid)
        parent_records = [results[p] for p in parent_ids]

        if isinstance(op, LoadOp):
            results[vid] = _load_records(op.path, dfs, inputs)
        elif isinstance(op, StoreOp):
            records = parent_records[0]
            outputs[op.path] = records
            if dfs is not None:
                if dfs.exists(op.path):
                    dfs.delete(op.path)
                dfs.write_file(op.path, records, scope="interpreter")
            results[vid] = records
        elif isinstance(op, UnionOp):
            merged: list[Record] = []
            for records in parent_records:
                merged.extend(records)
            results[vid] = merged
        elif isinstance(op, StreamingOperator):
            stage = op.bind(plan.schema_of(parent_ids[0]))
            results[vid] = stage(parent_records[0])
        elif isinstance(op, LimitOp) and _limit_preserves_order(plan, vid):
            # Mirror the MR compiler: LIMIT in the same job as an
            # upstream ORDER slices the *sorted* stream.
            results[vid] = parent_records[0][: op.limit]
        elif isinstance(op, BlockingOperator):
            results[vid] = _run_blocking(plan, vid, op, parent_records)
        else:
            raise PlanError(f"interpreter cannot evaluate {op!r}")

    return outputs


def _load_records(
    path: str,
    dfs: TrustedDFS | None,
    inputs: Mapping[str, list[Record]],
) -> list[Record]:
    if path in inputs:
        return list(inputs[path])
    if dfs is not None and dfs.exists(path):
        return dfs.read(path, scope="interpreter")
    raise PlanError(f"no input available for {path!r}")


def _limit_preserves_order(plan: LogicalPlan, vid: VertexId) -> bool:
    """True when the MR compiler would fuse this LIMIT into an upstream
    single-reducer job (ORDER), preserving sort order.  Must track the
    compiler's fusion rule exactly so both executions agree."""
    crossed_streaming = False
    current = plan.inputs(vid)[0]
    while True:
        op = plan.op(current)
        if len(plan.outputs(current)) > 1:
            return False  # materialized: LIMIT becomes its own job
        if isinstance(op, OrderOp):
            return True
        if isinstance(op, LimitOp):
            # A fused second LIMIT only merges when nothing sits between.
            return not crossed_streaming
        if isinstance(op, UnionOp) or not isinstance(op, StreamingOperator):
            return False
        crossed_streaming = True
        current = plan.inputs(current)[0]


def _run_blocking(
    plan: LogicalPlan,
    vid: VertexId,
    op: BlockingOperator,
    parent_records: list[list[Record]],
) -> list[Record]:
    input_schemas = plan.input_schemas_of(vid)
    groups: dict = defaultdict(list)
    for input_index, records in enumerate(parent_records):
        key_of = op.bind_key(input_index, input_schemas)
        for record in records:
            groups[key_of(record)].append((input_index, record))
    out: list[Record] = []
    # Deterministic key order: sort by repr of key (stable across runs).
    for key in sorted(groups, key=lambda k: (str(type(k)), str(k))):
        out.extend(op.reduce(key, groups[key], input_schemas))
    return out
