"""Logical-plan operators (the Pig Latin subset ClusterBFT instruments).

Operators are *descriptions*: they carry no input references (the
:class:`~repro.dataflow.plan.LogicalPlan` owns the DAG) and no schemas
(the plan infers those).  Each operator provides:

* ``derive_schema(input_schemas)`` — output schema inference, which
  binds every expression so a bad field reference fails here;
* for streaming operators, ``bind(input_schema)`` — one function from a
  stage's input list to its output list — and ``clause``, the same stage
  as comprehension clauses over one record;
* for blocking operators, which force a MapReduce shuffle boundary,
  ``emit_key`` / ``bind_key`` — the reduce key of one record —,
  ``reduce`` over one key group and ``reduce_clause``, the same
  reduction as comprehension clauses.

Binding resolves field references once and generates source for one
function (``expressions.Emitter``): the MapReduce compiler makes each
map branch's stages and key one function (``MapBranch.bind``) and each
reduce side up to its first VerifyOp another (``JobSpec``); the
interpreter binds every operator on its own, the reference.

Determinism note: every blocking operator sorts the records of a key
group by canonical encoding before producing output, implementing the
paper's §5.4 fix ("ordering the intermediate mapper output") so replica
digests match bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import PlanError, SchemaError
from repro.common.records import Record
from repro.dataflow import schema as sc
from repro.dataflow.expressions import Bound, Emitter, Expr, FieldRef
from repro.dataflow.schema import Field, Schema


def canonical_sort(records: list[Record]) -> list[Record]:
    """Sort records by canonical encoding (stable across replicas)."""
    return sorted(records, key=Record.encoded)


class Operator:
    """Base class for logical operators."""

    #: True when the operator needs a full view of its input partitioned
    #: by key — i.e. compiles to the reduce side of a MapReduce job.
    is_blocking = False
    #: True for LOAD (plan source) and STORE (plan sink) respectively.
    is_source = False
    is_sink = False
    arity = 1  # number of inputs

    def __init__(self, alias: str = "") -> None:
        self.alias = alias
        #: 1-based script line that produced this operator (set by the
        #: parser); ``None`` for programmatically-built plans.  The
        #: static plan checker uses it to point diagnostics at source.
        self.source_line: int | None = None

    @property
    def kind(self) -> str:
        return type(self).__name__.removesuffix("Op").lower()

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        alias = f" {self.alias}" if self.alias else ""
        return f"<{type(self).__name__}{alias}>"


#: A streaming operator bound to its input schema: a stage's input list
#: in, its output list out.
Stage = Callable[[list[Record]], list[Record]]


class StreamingOperator(Operator):
    """Per-record operator; may emit 0..n records per input record."""

    def bind(self, input_schema: Schema) -> Stage:
        """Resolve against ``input_schema``; return the stage function."""
        raise NotImplementedError

    def clause(self, emitter: Emitter) -> str:
        """This stage as comprehension clauses over the record ``r``,
        resolved in ``emitter.schema`` (a fused map branch, §24)."""
        raise NotImplementedError


class BlockingOperator(Operator):
    """Operator requiring a shuffle: key extraction + per-key reduction."""

    def emit_key(self, emitter: Emitter, input_index: int) -> str:
        """Source of the reduce key of one record ``r`` of input
        ``input_index``, resolved in ``emitter.schema`` (that input's)."""
        raise NotImplementedError

    def bind_key(self, input_index: int, input_schemas: list[Schema]) -> Bound:
        """The reduce key of one record of input ``input_index``."""
        emitter = Emitter(input_schemas[input_index])
        return emitter.function(f"lambda r: {self.emit_key(emitter, input_index)}")

    def reduce(self, key: Any, tagged: list[tuple[int, Record]], input_schemas: list[Schema]) -> list[Record]:
        """Produce output records for one key group.

        ``tagged`` pairs each record with its input index (relevant for
        JOIN); implementations must not rely on arrival order.
        """
        raise NotImplementedError

    def reduce_clause(self, emitter: Emitter, input_schemas: list[Schema]) -> str:
        """Comprehension clauses binding ``r`` to each output record of
        the group ``groups[key]``, in ``reduce``'s order (a fused reduce
        side, §27).  This default calls ``reduce`` itself."""
        reduce = emitter.slot(self.reduce)
        return f" for r in {reduce}(key, groups[key], {emitter.slot(input_schemas)})"

    def preferred_reducers(self) -> int | None:
        """Forced reducer count (e.g. 1 for global ORDER), or None."""
        return None


# ----------------------------------------------------------------------
# sources / sinks
# ----------------------------------------------------------------------


class LoadOp(Operator):
    """LOAD 'path' AS (schema)."""

    is_source = True
    arity = 0

    def __init__(self, path: str, load_schema: Schema, alias: str = "") -> None:
        super().__init__(alias)
        self.path = path
        self.load_schema = load_schema

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if input_schemas:
            raise PlanError("LOAD takes no inputs")
        return self.load_schema

    def describe(self) -> str:
        return f"load '{self.path}'"


class StoreOp(Operator):
    """STORE alias INTO 'path'."""

    is_sink = True

    def __init__(self, path: str, alias: str = "") -> None:
        super().__init__(alias)
        self.path = path

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) != 1:
            raise PlanError("STORE takes exactly one input")
        return input_schemas[0]

    def describe(self) -> str:
        return f"store '{self.path}'"


# ----------------------------------------------------------------------
# streaming operators
# ----------------------------------------------------------------------


class FilterOp(StreamingOperator):
    """FILTER alias BY predicate."""

    def __init__(self, predicate: Expr, alias: str = "") -> None:
        super().__init__(alias)
        self.predicate = predicate

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) != 1:
            raise PlanError("FILTER takes exactly one input")
        self.predicate.resolve(input_schemas[0])  # raises SchemaError on bad reference
        return input_schemas[0]

    def clause(self, emitter: Emitter) -> str:
        return f" if {emitter.expr(self.predicate)}"

    def bind(self, input_schema: Schema) -> Stage:
        emitter = Emitter(input_schema)
        return emitter.function(f"lambda records: [r for r in records{self.clause(emitter)}]")


@dataclass(frozen=True)
class Projection:
    """One GENERATE clause: an expression and its output field name."""

    expr: Expr
    name: str = ""

    def resolved_name(self) -> str:
        return self.name or self.expr.output_name()


class ForeachOp(StreamingOperator):
    """FOREACH alias GENERATE expr [AS name], ...

    Works both on flat records and on grouped records (where aggregate
    functions consume the bag field) — in either case it is one output
    record per input record, so it remains a streaming operator.
    """

    def __init__(self, projections: list[Projection], alias: str = "") -> None:
        super().__init__(alias)
        if not projections:
            raise PlanError("FOREACH needs at least one projection")
        self.projections = list(projections)

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) != 1:
            raise PlanError("FOREACH takes exactly one input")
        schema = input_schemas[0]
        fields = []
        for projection in self.projections:
            projection.expr.resolve(schema)
            type_tag = projection.expr.output_type(schema)
            inner = None
            if type_tag == sc.BAG and isinstance(projection.expr, FieldRef):
                inner = schema.field(schema.index_of(projection.expr.name)).inner
            fields.append(Field(projection.resolved_name(), type_tag, inner))
        return Schema(fields)

    def _record(self, emitter: Emitter) -> str:
        fields = "".join(f"{emitter.expr(p.expr)}, " for p in self.projections)
        return f"Record(({fields}))"

    def clause(self, emitter: Emitter) -> str:
        # CPython refuses `:=` in a comprehension's iterable, so the record
        # is named in a condition; the one-item loop compiles to a store.
        record = emitter.temp()
        return f" if ({record} := {self._record(emitter)}) is not None for r in ({record},)"

    def bind(self, input_schema: Schema) -> Stage:
        emitter = Emitter(input_schema)
        return emitter.function(f"lambda records: [{self._record(emitter)} for r in records]")


class VerifyOp(StreamingOperator):
    """Identity operator marking a verification point.

    Injected by :mod:`repro.core.instrument`; the MapReduce runtime taps
    the record stream here to compute SHA-256 digests for the verifier.
    ``vp_id`` identifies the verification point across all replicas.
    """

    def __init__(self, vp_id: str, chunk_records: int = 0, alias: str = "") -> None:
        super().__init__(alias)
        self.vp_id = vp_id
        self.chunk_records = chunk_records

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) != 1:
            raise PlanError("VERIFY takes exactly one input")
        return input_schemas[0]

    def bind(self, input_schema: Schema) -> Stage:
        return list

    def describe(self) -> str:
        return f"verify[{self.vp_id}]"


class UnionOp(StreamingOperator):
    """UNION a, b, ... — concatenation of same-arity relations.

    Streaming: each input record passes through unchanged; the plan
    allows multiple inputs (arity checked at schema derivation).
    """

    arity = 2  # minimum; plan allows more

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) < 2:
            raise PlanError("UNION takes at least two inputs")
        first = input_schemas[0]
        for other in input_schemas[1:]:
            if len(other) != len(first):
                raise SchemaError(
                    f"UNION arity mismatch: {len(first)} vs {len(other)}"
                )
        return first

    def bind(self, input_schema: Schema) -> Stage:
        return list


# ----------------------------------------------------------------------
# blocking operators
# ----------------------------------------------------------------------


def _emit_keys(exprs: list[Expr], emitter: Emitter) -> str:
    """Grouping keys: a single expr yields a scalar, several a tuple
    (Pig's GROUP key convention)."""
    keys = [emitter.expr(expr) for expr in exprs]
    return keys[0] if len(keys) == 1 else f"({', '.join(keys)})"


def _global_key(emitter: Emitter) -> str:
    """One key for every record: a global sort or limit has one group."""
    return emitter.slot(OrderOp.GLOBAL_KEY)


class GroupOp(BlockingOperator):
    """GROUP alias BY key — output records are (group, bag)."""

    is_blocking = True

    def __init__(self, key_exprs: list[Expr], alias: str = "", bag_name: str = "") -> None:
        super().__init__(alias)
        if not key_exprs:
            raise PlanError("GROUP needs at least one key expression")
        self.key_exprs = list(key_exprs)
        # Pig names the grouped bag after the *input* relation's alias.
        self.bag_name = bag_name

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) != 1:
            raise PlanError("GROUP takes exactly one input")
        schema = input_schemas[0]
        for expr in self.key_exprs:
            expr.resolve(schema)
        if len(self.key_exprs) == 1:
            key_type = self.key_exprs[0].output_type(schema)
        else:
            key_type = sc.TUPLE
        bag_name = self.bag_name or self.alias or "bag"
        return Schema(
            [Field("group", key_type), Field(bag_name, sc.BAG, schema)]
        )

    def emit_key(self, emitter: Emitter, input_index: int) -> str:
        return _emit_keys(self.key_exprs, emitter)

    def reduce(self, key: Any, tagged: list[tuple[int, Record]], input_schemas: list[Schema]) -> list[Record]:
        bag = tuple(canonical_sort([record for _, record in tagged]))
        return [Record((key, bag))]


class JoinOp(BlockingOperator):
    """JOIN left BY k1, right BY k2 — inner equi-join."""

    is_blocking = True
    arity = 2

    def __init__(
        self,
        left_keys: list[Expr],
        right_keys: list[Expr],
        alias: str = "",
        input_aliases: tuple[str, str] | None = None,
    ) -> None:
        super().__init__(alias)
        if not left_keys or len(left_keys) != len(right_keys):
            raise PlanError("JOIN needs matching key lists for both inputs")
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.input_aliases = input_aliases

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) != 2:
            raise PlanError("JOIN takes exactly two inputs")
        left, right = input_schemas
        for expr in self.left_keys:
            expr.resolve(left)
        for expr in self.right_keys:
            expr.resolve(right)
        if self.input_aliases:
            # Qualify as alias::name so duplicate field names stay
            # addressable downstream (Pig's join-output convention).
            left = left.qualify(self.input_aliases[0])
            right = right.qualify(self.input_aliases[1])
        return left.concat(right)

    def emit_key(self, emitter: Emitter, input_index: int) -> str:
        return _emit_keys(self.left_keys if input_index == 0 else self.right_keys, emitter)

    def reduce(self, key: Any, tagged: list[tuple[int, Record]], input_schemas: list[Schema]) -> list[Record]:
        left_rows = canonical_sort([r for tag, r in tagged if tag == 0])
        right_rows = canonical_sort([r for tag, r in tagged if tag == 1])
        out = []
        for left in left_rows:
            for right in right_rows:
                out.append(left.concat(right))
        return out

    def reduce_clause(self, emitter: Emitter, input_schemas: list[Schema]) -> str:
        # Each side sorted once per key; ``right`` is bound before the
        # nested loops so it is not sorted again per left record.
        encoded = emitter.slot(Record.encoded)
        return (
            " for tagged in (groups[key],)"
            f" for right in (sorted([x for t, x in tagged if t == 1], key={encoded}),)"
            f" for left in sorted([x for t, x in tagged if t == 0], key={encoded})"
            " for each in right for r in (Record(left.fields + each.fields),)"
        )


class DistinctOp(BlockingOperator):
    """DISTINCT alias — deduplicate whole records."""

    is_blocking = True

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) != 1:
            raise PlanError("DISTINCT takes exactly one input")
        return input_schemas[0]

    def emit_key(self, emitter: Emitter, input_index: int) -> str:
        return "r.fields"  # the record's own tuple: its encoding is cached

    def reduce(self, key: Any, tagged: list[tuple[int, Record]], input_schemas: list[Schema]) -> list[Record]:
        return [tagged[0][1]]

    def reduce_clause(self, emitter: Emitter, input_schemas: list[Schema]) -> str:
        return " for r in (groups[key][0][1],)"


@dataclass(frozen=True)
class SortKey:
    """One ORDER BY column: field reference plus direction."""

    ref: str
    ascending: bool = True


class OrderOp(BlockingOperator):
    """ORDER alias BY key [DESC], ... — global sort (single reducer)."""

    is_blocking = True

    #: Sentinel key: all records shuffle to one group for a global sort.
    GLOBAL_KEY = "__order__"

    def __init__(self, sort_keys: list[SortKey], alias: str = "") -> None:
        super().__init__(alias)
        if not sort_keys:
            raise PlanError("ORDER needs at least one sort key")
        self.sort_keys = list(sort_keys)

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) != 1:
            raise PlanError("ORDER takes exactly one input")
        schema = input_schemas[0]
        for key in self.sort_keys:
            schema.index_of(key.ref)
        return schema

    def preferred_reducers(self) -> int | None:
        return 1

    def emit_key(self, emitter: Emitter, input_index: int) -> str:
        return _global_key(emitter)

    def reduce(self, key: Any, tagged: list[tuple[int, Record]], input_schemas: list[Schema]) -> list[Record]:
        schema = input_schemas[0]
        records = canonical_sort([record for _, record in tagged])
        # Stable multi-key sort: apply keys right-to-left.
        for sort_key in reversed(self.sort_keys):
            index = schema.index_of(sort_key.ref)
            records.sort(
                key=lambda r, i=index: _null_safe_key(r[i]),
                reverse=not sort_key.ascending,
            )
        return records


def _null_safe_key(value: Any) -> tuple:
    """Sort key tolerating None and mixed numeric/string columns."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, (int, float)):
        return (1, value, "")
    return (2, 0, str(value))


class LimitOp(BlockingOperator):
    """LIMIT alias n — first n records (after any upstream ORDER)."""

    is_blocking = True

    def __init__(self, limit: int, alias: str = "") -> None:
        super().__init__(alias)
        if limit < 0:
            raise PlanError("LIMIT must be >= 0")
        self.limit = limit

    def derive_schema(self, input_schemas: list[Schema]) -> Schema:
        if len(input_schemas) != 1:
            raise PlanError("LIMIT takes exactly one input")
        return input_schemas[0]

    def preferred_reducers(self) -> int | None:
        return 1

    def emit_key(self, emitter: Emitter, input_index: int) -> str:
        return _global_key(emitter)

    def reduce(self, key: Any, tagged: list[tuple[int, Record]], input_schemas: list[Schema]) -> list[Record]:
        # Standalone LIMIT picks a *deterministic* arbitrary subset:
        # canonical order, then slice.  When LIMIT directly follows ORDER
        # the compiler instead fuses it into the ORDER job (slicing the
        # sorted reduce output), preserving the sort.
        records = canonical_sort([record for _, record in tagged])
        return records[: self.limit]
