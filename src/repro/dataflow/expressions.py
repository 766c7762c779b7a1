"""Expression AST for FILTER predicates and FOREACH projections.

An expression is *bound* once to the
:class:`~repro.dataflow.schema.Schema` of its input: ``bind(schema)``
resolves every field reference to a position, picks each operator's
function, and returns a plain function of one
:class:`~repro.common.records.Record`.  Nothing is resolved per record.
Aggregate functions (COUNT, SUM, AVG, MIN, MAX) consume *bags* — the
canonically-sorted tuples of records produced by GROUP — so a FOREACH
over grouped data is just ordinary expression evaluation.

AVG is implemented as sum-then-divide, not a moving average: the paper
(§5.4) notes that moving averages break replica determinism in the last
bits of floating-point precision.  ``TRUNC(x, k)`` is provided for the
paper's other workaround (truncating decimals before arithmetic).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import SchemaError
from repro.common.records import Record
from repro.dataflow import schema as sc
from repro.dataflow.schema import Schema


#: An expression bound to its input schema: one record in, one value out.
Bound = Callable[[Record], Any]


class Expr:
    """Base class for expression nodes."""

    def bind(self, schema: Schema) -> Bound:
        """Resolve against ``schema`` (raising :class:`SchemaError` on a
        bad reference) and return the evaluator for its records."""
        raise NotImplementedError

    def output_type(self, schema: Schema) -> str:
        """Static result type under ``schema`` (loose; ANY when unknown)."""
        return sc.ANY

    def output_name(self) -> str:
        """Suggested field name when this expression is projected."""
        return "expr"

    def references(self) -> set[str]:
        """Field names this expression reads in its input schema (a bag
        projection's inner field is not one; ``bind`` resolves it)."""
        return set()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def bind(self, schema: Schema) -> Bound:
        value = self.value
        return lambda record: value

    def output_type(self, schema: Schema) -> str:
        if isinstance(self.value, bool):
            return sc.BOOLEAN
        if isinstance(self.value, int):
            return sc.LONG
        if isinstance(self.value, float):
            return sc.DOUBLE
        if isinstance(self.value, str):
            return sc.CHARARRAY
        return sc.ANY

    def output_name(self) -> str:
        return "literal"

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


@dataclass(frozen=True)
class FieldRef(Expr):
    """Reference to a field by name or ``$k`` position."""

    name: str

    def bind(self, schema: Schema) -> Bound:
        index = schema.index_of(self.name)
        return lambda record: record.fields[index]

    def output_type(self, schema: Schema) -> str:
        return schema.type_of(self.name)

    def output_name(self) -> str:
        return self.name.split("::")[-1].lstrip("$")

    def references(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"FieldRef({self.name})"


@dataclass(frozen=True)
class BagProject(Expr):
    """Project one field out of every record in a bag: ``B.temp``.

    Evaluates to a tuple of values, preserving the bag's canonical order.
    The field resolves in the bag's inner schema when GROUP attached one;
    without one, each item must be a 1-field record.
    """

    bag: Expr
    field: str

    def bind(self, schema: Schema) -> Bound:
        bag = self.bag.bind(schema)
        inner_schema = _bag_schema(self.bag, schema)
        if not inner_schema:
            get = self._only_field
        else:
            get = operator.itemgetter(inner_schema.index_of(self.field))

        def project(record: Record) -> tuple:
            items = bag(record)
            return () if items is None else tuple([get(item) for item in items])

        return project

    def _only_field(self, item: Any) -> Any:
        if isinstance(item, Record) and len(item) == 1:
            return item[0]
        raise SchemaError(f"cannot resolve field {self.field!r} inside bag")

    def output_type(self, schema: Schema) -> str:
        return sc.BAG

    def output_name(self) -> str:
        return self.field

    def references(self) -> set[str]:
        return self.bag.references()


def _bag_schema(bag_expr: Expr, schema: Schema) -> Schema | None:
    """Inner schema of a bag-typed field (attached by GROUP)."""
    if isinstance(bag_expr, FieldRef):
        index = schema.index_of(bag_expr.name)
        return schema.field(index).inner
    return None


_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def bind(self, schema: Schema) -> Bound:
        left, right = self.left.bind(schema), self.right.bind(schema)
        if self.op == "and":
            return lambda record: bool(left(record)) and bool(right(record))
        if self.op == "or":
            return lambda record: bool(left(record)) or bool(right(record))
        # A None operand makes a comparison False and arithmetic None.
        if self.op in _COMPARISONS:
            fn, on_null = _COMPARISONS[self.op], False
        elif self.op in _ARITHMETIC:
            fn, on_null = _ARITHMETIC[self.op], None
        else:
            raise SchemaError(f"unknown operator: {self.op!r}")

        def apply(record: Record) -> Any:
            a, b = left(record), right(record)
            return on_null if a is None or b is None else fn(a, b)

        return apply

    def output_type(self, schema: Schema) -> str:
        if self.op in _COMPARISONS or self.op in ("and", "or"):
            return sc.BOOLEAN
        left = self.left.output_type(schema)
        right = self.right.output_type(schema)
        if sc.DOUBLE in (left, right) or sc.FLOAT in (left, right) or self.op == "/":
            return sc.DOUBLE
        if sc.is_numeric(left) and sc.is_numeric(right):
            return sc.LONG
        return sc.ANY

    def output_name(self) -> str:
        return "expr"

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "not" | "neg"
    operand: Expr

    def bind(self, schema: Schema) -> Bound:
        operand = self.operand.bind(schema)
        if self.op == "not":
            return lambda record: not operand(record)
        if self.op != "neg":
            raise SchemaError(f"unknown unary operator: {self.op!r}")

        def negate(record: Record) -> Any:
            value = operand(record)
            return None if value is None else -value

        return negate

    def output_type(self, schema: Schema) -> str:
        if self.op == "not":
            return sc.BOOLEAN
        return self.operand.output_type(schema)

    def references(self) -> set[str]:
        return self.operand.references()


@dataclass(frozen=True)
class IsNull(Expr):
    """``x IS NULL`` / ``x IS NOT NULL`` (negate=True)."""

    operand: Expr
    negate: bool = False

    def bind(self, schema: Schema) -> Bound:
        operand = self.operand.bind(schema)
        if self.negate:
            return lambda record: operand(record) is not None
        return lambda record: operand(record) is None

    def output_type(self, schema: Schema) -> str:
        return sc.BOOLEAN

    def references(self) -> set[str]:
        return self.operand.references()


def _as_bag(value: Any) -> tuple:
    if value is None:
        return ()
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list, frozenset)):
        return tuple(value)
    raise SchemaError(f"aggregate applied to non-bag value: {type(value).__name__}")


def _scalars(bag: tuple) -> list:
    """Unwrap 1-field records inside a bag to scalars; pass scalars through."""
    out = []
    for item in bag:
        if isinstance(item, Record):
            if len(item) != 1:
                raise SchemaError(
                    "aggregate over multi-field records; project a field first"
                )
            out.append(item[0])
        else:
            out.append(item)
    return out


def _agg_count(args: list[Any]) -> int:
    return len(_as_bag(args[0]))


def _agg_sum(args: list[Any]) -> Any:
    values = [v for v in _scalars(_as_bag(args[0])) if v is not None]
    return sum(values) if values else None


def _agg_avg(args: list[Any]) -> Any:
    values = [v for v in _scalars(_as_bag(args[0])) if v is not None]
    if not values:
        return None
    # Sum-then-divide: deterministic across replicas (paper §5.4).
    return sum(values) / len(values)


def _agg_min(args: list[Any]) -> Any:
    values = [v for v in _scalars(_as_bag(args[0])) if v is not None]
    return min(values) if values else None


def _agg_max(args: list[Any]) -> Any:
    values = [v for v in _scalars(_as_bag(args[0])) if v is not None]
    return max(values) if values else None


def _fn_trunc(args: list[Any]) -> Any:
    """TRUNC(x, k): truncate x to k decimal digits (paper §5.4 workaround)."""
    value = args[0]
    digits = args[1] if len(args) > 1 else 0
    if value is None:
        return None
    scale = 10 ** int(digits)
    return int(value * scale) / scale if digits else float(int(value))


def _fn_round(args: list[Any]) -> Any:
    value = args[0]
    return None if value is None else round(value)


def _fn_floor(args: list[Any]) -> Any:
    value = args[0]
    return None if value is None else float(int(value // 1))


def _fn_abs(args: list[Any]) -> Any:
    value = args[0]
    return None if value is None else abs(value)


def _fn_concat(args: list[Any]) -> Any:
    if any(a is None for a in args):
        return None
    return "".join(str(a) for a in args)


def _fn_size(args: list[Any]) -> Any:
    value = args[0]
    if value is None:
        return 0
    if isinstance(value, (tuple, list, frozenset, str)):
        return len(value)
    return 1


FUNCTIONS = {
    "COUNT": (_agg_count, sc.LONG, True),
    "SUM": (_agg_sum, sc.DOUBLE, True),
    "AVG": (_agg_avg, sc.DOUBLE, True),
    "MIN": (_agg_min, sc.ANY, True),
    "MAX": (_agg_max, sc.ANY, True),
    "TRUNC": (_fn_trunc, sc.DOUBLE, False),
    "ROUND": (_fn_round, sc.LONG, False),
    "FLOOR": (_fn_floor, sc.DOUBLE, False),
    "ABS": (_fn_abs, sc.ANY, False),
    "CONCAT": (_fn_concat, sc.CHARARRAY, False),
    "SIZE": (_fn_size, sc.LONG, False),
}


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.name.upper() not in FUNCTIONS:
            raise SchemaError(f"unknown function: {self.name!r}")

    def bind(self, schema: Schema) -> Bound:
        fn, _, _ = FUNCTIONS[self.name.upper()]
        args = [arg.bind(schema) for arg in self.args]
        return lambda record: fn([arg(record) for arg in args])

    def output_type(self, schema: Schema) -> str:
        _, type_tag, _ = FUNCTIONS[self.name.upper()]
        return type_tag

    def output_name(self) -> str:
        if self.args:
            return f"{self.name.lower()}_{self.args[0].output_name()}"
        return self.name.lower()

    def references(self) -> set[str]:
        refs: set[str] = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    @property
    def is_aggregate(self) -> bool:
        return FUNCTIONS[self.name.upper()][2]


# ----------------------------------------------------------------------
# Convenience constructors (used by the builder API and tests)
# ----------------------------------------------------------------------

def field(name: str) -> FieldRef:
    return FieldRef(name)


def lit(value: Any) -> Literal:
    return Literal(value)


def eq(left: Expr, right: Expr) -> BinOp:
    return BinOp("==", left, right)


def neq(left: Expr, right: Expr) -> BinOp:
    return BinOp("!=", left, right)


def gt(left: Expr, right: Expr) -> BinOp:
    return BinOp(">", left, right)


def lt(left: Expr, right: Expr) -> BinOp:
    return BinOp("<", left, right)


def and_(left: Expr, right: Expr) -> BinOp:
    return BinOp("and", left, right)


def or_(left: Expr, right: Expr) -> BinOp:
    return BinOp("or", left, right)


def not_null(expr: Expr) -> IsNull:
    return IsNull(expr, negate=True)


def count(bag: Expr) -> FuncCall:
    return FuncCall("COUNT", (bag,))


def avg(bag: Expr) -> FuncCall:
    return FuncCall("AVG", (bag,))


def call(name: str, *args: Expr) -> FuncCall:
    return FuncCall(name, tuple(args))
