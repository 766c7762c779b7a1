"""Map-side combining (algebraic partial aggregation).

Pig/Hadoop's classic shuffle optimization: when a GROUP feeds a FOREACH
of *algebraic* aggregates (COUNT, SUM, MIN, MAX, AVG), map tasks can
pre-aggregate per key and ship one small partial record per key instead
of the whole bag.  The reducer merges partials; outputs are identical.

Safety rules (each guards a correctness property):

* the FOREACH must be the first reduce-side operator — a verification
  point between GROUP and FOREACH taps the full bags, which combining
  elides;
* projections may only be the ``group`` key or algebraic aggregates of
  bag fields;
* SUM/AVG over floating-point fields are **excluded**: partial sums
  re-associate float addition, which may differ from the reference
  interpreter in the last bits and break digest equality with
  uncombined executions (the paper's §5.4 determinism discussion is
  exactly about this class of bug).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.records import Record
from repro.compiler.jobspec import JobSpec
from repro.dataflow import schema as sc
from repro.dataflow.expressions import BagProject, FieldRef, FuncCall
from repro.dataflow.operators import ForeachOp, GroupOp

COUNT = "count"
SUM = "sum"
MIN = "min"
MAX = "max"

#: layout entries: ("group",) or ("agg", slot) or ("avg", sum_slot, count_slot)
GROUP_FIELD = "group"
AGG_FIELD = "agg"
AVG_FIELD = "avg"


@dataclass(frozen=True)
class AggregateSlot:
    """One partial-state accumulator."""

    kind: str  # COUNT | SUM | MIN | MAX
    field_index: int | None  # index into the group *input* schema


@dataclass(frozen=True)
class CombinerSpec:
    """Compiled combining plan for one GROUP+FOREACH job."""

    slots: tuple[AggregateSlot, ...]
    layout: tuple[tuple, ...]  # one entry per original projection

    # ------------------------------------------------------------------
    # map side
    # ------------------------------------------------------------------

    def initial_partial(self, records: list[Record]) -> Record:
        """Aggregate one map task's records for one key into a partial."""
        values = []
        for slot in self.slots:
            values.append(self._aggregate(slot, records))
        return Record(tuple(values))

    def _aggregate(self, slot: AggregateSlot, records: list[Record]):
        if slot.kind == COUNT:
            return len(records)
        column = [
            record[slot.field_index]
            for record in records
            if record[slot.field_index] is not None
        ]
        if not column:
            return None
        if slot.kind == SUM:
            return sum(column)
        if slot.kind == MIN:
            return min(column)
        return max(column)

    # ------------------------------------------------------------------
    # reduce side
    # ------------------------------------------------------------------

    def merge(self, partials: list[Record]) -> Record:
        """Merge map-side partials for one key."""
        values = []
        for index, slot in enumerate(self.slots):
            column = [p[index] for p in partials if p[index] is not None]
            if slot.kind == COUNT:
                values.append(sum(column))
            elif not column:
                values.append(None)
            elif slot.kind == SUM:
                values.append(sum(column))
            elif slot.kind == MIN:
                values.append(min(column))
            else:
                values.append(max(column))
        return Record(tuple(values))

    def finalize(self, key, merged: Record) -> Record:
        """Produce the record the original FOREACH would have produced."""
        out = []
        for entry in self.layout:
            if entry[0] == GROUP_FIELD:
                out.append(key)
            elif entry[0] == AGG_FIELD:
                out.append(merged[entry[1]])
            else:  # AVG
                total, count = merged[entry[1]], merged[entry[2]]
                out.append(None if not count or total is None else total / count)
        return Record(tuple(out))


def _exact_type(type_tag: str) -> bool:
    return type_tag in (sc.INT, sc.LONG)


def build_combiner(job: JobSpec) -> CombinerSpec | None:
    """Return a combiner plan for ``job`` if it is eligible, else None."""
    if not isinstance(job.blocking, GroupOp):
        return None
    if any(branch.tag != 0 for branch in job.branches):
        return None
    if not job.reduce_pipeline:
        return None
    foreach = job.reduce_pipeline[0].op
    if not isinstance(foreach, ForeachOp):
        return None
    group_schema = job.reduce_pipeline[0].input_schema  # (group, bag)
    bag_field = group_schema.field(1)
    input_schema = bag_field.inner
    if input_schema is None:
        return None
    bag_names = {bag_field.name, bag_field.name.split("::")[-1]}

    slots: list[AggregateSlot] = []
    layout: list[tuple] = []

    def slot_for(slot: AggregateSlot) -> int:
        for index, existing in enumerate(slots):
            if existing == slot:
                return index
        slots.append(slot)
        return len(slots) - 1

    for projection in foreach.projections:
        expr = projection.expr
        if isinstance(expr, FieldRef) and expr.name in ("group", "$0"):
            layout.append((GROUP_FIELD,))
            continue
        if not isinstance(expr, FuncCall):
            return None
        name = expr.name.upper()
        if name not in ("COUNT", "SUM", "AVG", "MIN", "MAX") or len(expr.args) != 1:
            return None
        arg = expr.args[0]
        if name == "COUNT" and isinstance(arg, FieldRef) and arg.name in bag_names:
            layout.append((AGG_FIELD, slot_for(AggregateSlot(COUNT, None))))
            continue
        if not (
            isinstance(arg, BagProject)
            and isinstance(arg.bag, FieldRef)
            and arg.bag.name in bag_names
        ):
            return None
        field_index = input_schema.index_of(arg.field)  # resolved by plan validation
        field_type = input_schema.field(field_index).type
        if name == "COUNT":
            layout.append((AGG_FIELD, slot_for(AggregateSlot(COUNT, None))))
        elif name == "MIN":
            layout.append((AGG_FIELD, slot_for(AggregateSlot(MIN, field_index))))
        elif name == "MAX":
            layout.append((AGG_FIELD, slot_for(AggregateSlot(MAX, field_index))))
        elif name == "SUM":
            if not _exact_type(field_type):
                return None  # float reassociation hazard
            layout.append((AGG_FIELD, slot_for(AggregateSlot(SUM, field_index))))
        else:  # AVG
            if not _exact_type(field_type):
                return None
            sum_slot = slot_for(AggregateSlot(SUM, field_index))
            count_slot = slot_for(AggregateSlot(COUNT, None))
            layout.append((AVG_FIELD, sum_slot, count_slot))
    if not any(entry[0] != GROUP_FIELD for entry in layout):
        return None  # nothing aggregated; combining would be pointless
    return CombinerSpec(slots=tuple(slots), layout=tuple(layout))
