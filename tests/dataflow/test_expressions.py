"""Tests for the expression language."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SchemaError
from repro.common.records import Record
from repro.dataflow import expressions as ex
from repro.dataflow.schema import BAG, DOUBLE, INT, Field, Schema

SCHEMA = Schema.of(("a", INT), ("b", INT), ("s", "chararray"))


def ev(expr, fields=(3, 4, "hi"), schema=SCHEMA):
    return expr.bind(schema)(Record(fields))


class TestBasics:
    def test_literal(self):
        assert ev(ex.lit(42)) == 42

    def test_field_ref(self):
        assert ev(ex.field("b")) == 4

    def test_positional_ref(self):
        assert ev(ex.field("$2")) == "hi"

    def test_references_collected(self):
        expr = ex.and_(ex.gt(ex.field("a"), ex.lit(1)), ex.eq(ex.field("b"), ex.lit(4)))
        assert expr.references() == {"a", "b"}


class TestArithmetic:
    @pytest.mark.parametrize(
        "op,expected", [("+", 7), ("-", -1), ("*", 12), ("%", 3)]
    )
    def test_binops(self, op, expected):
        assert ev(ex.BinOp(op, ex.field("a"), ex.field("b"))) == expected

    def test_division_is_float(self):
        assert ev(ex.BinOp("/", ex.field("b"), ex.field("a"))) == pytest.approx(4 / 3)

    def test_null_propagates(self):
        assert ex.BinOp("+", ex.field("a"), ex.lit(None)).bind(SCHEMA)(
            Record((1, 2, ""))
        ) is None

    def test_negation(self):
        assert ev(ex.UnaryOp("neg", ex.field("a"))) == -3

    def test_unknown_operator_rejected(self):
        with pytest.raises(SchemaError):
            ev(ex.BinOp("**", ex.lit(1), ex.lit(2)))


class TestComparisons:
    def test_comparison_operators(self):
        assert ev(ex.gt(ex.field("b"), ex.field("a"))) is True
        assert ev(ex.lt(ex.field("b"), ex.field("a"))) is False
        assert ev(ex.eq(ex.field("a"), ex.lit(3))) is True
        assert ev(ex.neq(ex.field("a"), ex.lit(3))) is False

    def test_comparison_with_null_is_false(self):
        assert ex.gt(ex.field("a"), ex.lit(1)).bind(SCHEMA)(
            Record((None, 0, ""))
        ) is False

    def test_boolean_connectives(self):
        t, f = ex.lit(True), ex.lit(False)
        assert ev(ex.and_(t, t)) and not ev(ex.and_(t, f))
        assert ev(ex.or_(f, t)) and not ev(ex.or_(f, f))

    def test_not(self):
        assert ev(ex.UnaryOp("not", ex.lit(False))) is True

    def test_is_null(self):
        assert ex.IsNull(ex.field("a")).bind(SCHEMA)(Record((None, 0, "")))
        assert ev(ex.not_null(ex.field("a"))) is True


class TestAggregates:
    BAG_SCHEMA = Schema(
        [
            Field("group", INT),
            Field("vals", BAG, Schema.of(("k", INT), ("v", DOUBLE))),
        ]
    )

    def record(self, *pairs):
        return Record((1, tuple(Record(p) for p in pairs)))

    def agg(self, fn, *pairs, project="v"):
        expr = ex.call(fn, ex.BagProject(ex.field("vals"), project))
        return expr.bind(self.BAG_SCHEMA)(self.record(*pairs))

    def test_count(self):
        expr = ex.count(ex.field("vals"))
        assert expr.bind(self.BAG_SCHEMA)(self.record((1, 2.0), (3, 4.0))) == 2

    def test_count_empty_bag(self):
        assert ex.count(ex.field("vals")).bind(self.BAG_SCHEMA)(Record((1, ()))) == 0

    def test_sum(self):
        assert self.agg("SUM", (1, 2.0), (3, 4.0)) == 6.0

    def test_avg_is_sum_then_divide(self):
        assert self.agg("AVG", (1, 1.0), (3, 2.0), (5, 6.0)) == 3.0

    def test_min_max(self):
        assert self.agg("MIN", (1, 5.0), (2, -1.0)) == -1.0
        assert self.agg("MAX", (1, 5.0), (2, -1.0)) == 5.0

    def test_aggregates_skip_nulls(self):
        assert self.agg("SUM", (1, 2.0), (2, None)) == 2.0

    def test_sum_of_empty_is_null(self):
        assert self.agg("SUM") is None

    def test_bag_project_extracts_field(self):
        expr = ex.BagProject(ex.field("vals"), "k")
        assert expr.bind(self.BAG_SCHEMA)(self.record((1, 2.0), (3, 4.0))) == (1, 3)

    def test_bag_project_unknown_field(self):
        expr = ex.BagProject(ex.field("vals"), "ghost")
        with pytest.raises(SchemaError):
            expr.bind(self.BAG_SCHEMA)(self.record((1, 2.0)))

    def test_aggregate_over_multifield_bag_requires_projection(self):
        expr = ex.call("SUM", ex.field("vals"))
        with pytest.raises(SchemaError):
            expr.bind(self.BAG_SCHEMA)(self.record((1, 2.0)))


class TestScalarFunctions:
    def test_trunc(self):
        assert ev(ex.call("TRUNC", ex.lit(3.14159), ex.lit(2))) == 3.14

    def test_trunc_to_integer(self):
        assert ev(ex.call("TRUNC", ex.lit(3.9))) == 3.0

    def test_trunc_null(self):
        assert ev(ex.call("TRUNC", ex.lit(None))) is None

    def test_round_floor_abs(self):
        assert ev(ex.call("ROUND", ex.lit(2.6))) == 3
        assert ev(ex.call("FLOOR", ex.lit(2.6))) == 2.0
        assert ev(ex.call("ABS", ex.lit(-4))) == 4

    def test_concat(self):
        assert ev(ex.call("CONCAT", ex.lit("a"), ex.lit("b"))) == "ab"
        assert ev(ex.call("CONCAT", ex.lit("a"), ex.lit(None))) is None

    def test_size(self):
        assert ev(ex.call("SIZE", ex.field("s"))) == 2
        assert ev(ex.call("SIZE", ex.lit(None))) == 0

    def test_unknown_function_rejected(self):
        with pytest.raises(SchemaError):
            ex.call("FROBNICATE", ex.lit(1))

    def test_is_aggregate_flag(self):
        assert ex.count(ex.field("s")).is_aggregate
        assert not ex.call("TRUNC", ex.lit(1.0)).is_aggregate


class TestOutputTypes:
    def test_comparison_is_boolean(self):
        assert ex.gt(ex.field("a"), ex.lit(1)).output_type(SCHEMA) == "boolean"

    def test_division_is_double(self):
        assert ex.BinOp("/", ex.field("a"), ex.field("b")).output_type(SCHEMA) == "double"

    def test_output_names(self):
        assert ex.field("A::user").output_name() == "user"
        assert ex.count(ex.field("b")).output_name() == "count_b"


# ----------------------------------------------------------------------
# Binding against an independent oracle
# ----------------------------------------------------------------------

# The per-record evaluation the expression classes did before they were
# bound: every field reference is resolved against the schema on every
# call.  It shares nothing with ``bind`` but the FUNCTIONS table.
COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


def reference(expr, record, schema):
    def sub(child):
        return reference(child, record, schema)

    if isinstance(expr, ex.Literal):
        return expr.value
    if isinstance(expr, ex.FieldRef):
        return record[schema.index_of(expr.name)]
    if isinstance(expr, ex.BagProject):
        bag_value = sub(expr.bag)
        if bag_value is None:
            return ()
        inner_schema = None
        if isinstance(expr.bag, ex.FieldRef):
            inner_schema = schema.field(schema.index_of(expr.bag.name)).inner
        index = inner_schema.index_of(expr.field) if inner_schema else None
        out = []
        for item in bag_value:
            if index is not None:
                out.append(item[index])
            elif isinstance(item, Record) and len(item) == 1:
                out.append(item[0])
            else:
                raise SchemaError(f"cannot resolve field {expr.field!r} inside bag")
        return tuple(out)
    if isinstance(expr, ex.BinOp):
        if expr.op == "and":
            return bool(sub(expr.left)) and bool(sub(expr.right))
        if expr.op == "or":
            return bool(sub(expr.left)) or bool(sub(expr.right))
        left, right = sub(expr.left), sub(expr.right)
        if expr.op in COMPARISONS:
            if left is None or right is None:
                return False
            return COMPARISONS[expr.op](left, right)
        if left is None or right is None:
            return None
        return ARITHMETIC[expr.op](left, right)
    if isinstance(expr, ex.UnaryOp):
        value = sub(expr.operand)
        if expr.op == "not":
            return not bool(value)
        return None if value is None else -value
    if isinstance(expr, ex.IsNull):
        is_null = sub(expr.operand) is None
        return not is_null if expr.negate else is_null
    fn, _, _ = ex.FUNCTIONS[expr.name.upper()]
    return fn([sub(arg) for arg in expr.args])


def outcome(evaluate):
    """What evaluating produced: its value, or the type it raised."""
    try:
        return "value", repr(evaluate())
    except Exception as exc:  # the exception type is the result
        return "raised", type(exc)


#: Scalars, a qualified field, a bag with an inner schema and a bag
#: without one (whose items must be 1-field records).
GEN_SCHEMA = Schema(
    [
        Field("a", INT),
        Field("b", DOUBLE),
        Field("s", "chararray"),
        Field("T::q", INT),
        Field("vals", BAG, Schema.of(("k", INT), ("v", DOUBLE))),
        Field("ones", BAG),
    ]
)
SCALAR_REFS = ["a", "b", "s", "q", "T::q", "$0", "$1", "$2", "$3"]
AGGREGATES = sorted(name for name, (_, _, agg) in ex.FUNCTIONS.items() if agg)
SCALAR_FUNCTIONS = sorted(name for name, (_, _, agg) in ex.FUNCTIONS.items() if not agg)

small_ints = st.integers(-20, 20)
small_floats = st.floats(-1e3, 1e3, allow_nan=False)
short_text = st.text(max_size=3)
values = st.one_of(st.none(), st.booleans(), small_ints, small_floats, short_text)

bag_exprs = st.one_of(
    st.builds(ex.FieldRef, st.sampled_from(["vals", "ones", "$4", "$5"])),
    st.builds(
        ex.BagProject,
        st.builds(ex.FieldRef, st.sampled_from(["vals", "$4"])),
        st.sampled_from(["k", "v", "$0", "$1"]),
    ),
    st.builds(
        ex.BagProject,
        st.builds(ex.FieldRef, st.sampled_from(["ones", "$5"])),
        st.sampled_from(["x", "anything"]),
    ),
)


def _extend(children):
    return st.one_of(
        st.builds(
            ex.BinOp,
            st.sampled_from(sorted(COMPARISONS) + sorted(ARITHMETIC) + ["and", "or"]),
            children,
            children,
        ),
        st.builds(ex.UnaryOp, st.sampled_from(["not", "neg"]), children),
        st.builds(ex.IsNull, children, st.booleans()),
        st.builds(
            ex.FuncCall,
            st.sampled_from(SCALAR_FUNCTIONS),
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
    )


exprs = st.recursive(
    st.one_of(
        st.builds(ex.Literal, values),
        st.builds(ex.FieldRef, st.sampled_from(SCALAR_REFS)),
        st.builds(
            ex.FuncCall,
            st.sampled_from(AGGREGATES + ["SIZE"]),
            bag_exprs.map(lambda bag: (bag,)),
        ),
        bag_exprs,
    ),
    _extend,
    max_leaves=6,
)

records = st.builds(
    lambda a, b, s, q, vals, ones: Record((a, b, s, q, vals, ones)),
    st.none() | small_ints,
    st.none() | small_floats,
    st.none() | short_text,
    st.none() | small_ints,
    st.none()
    | st.lists(
        st.builds(lambda k, v: Record((k, v)), st.none() | small_ints, st.none() | small_floats),
        max_size=4,
    ).map(tuple),
    st.none()
    | st.lists(
        st.builds(lambda x: Record((x,)), st.none() | small_ints), max_size=4
    ).map(tuple),
)

#: Every case the generator must reach, pinned so each run exercises it.
CORPUS = [
    ex.gt(ex.field("a"), ex.lit(None)),  # None in a comparison: False
    ex.eq(ex.lit(None), ex.field("q")),
    ex.BinOp("*", ex.field("b"), ex.lit(None)),  # None in arithmetic: None
    ex.BinOp("-", ex.lit(None), ex.field("$0")),
    ex.and_(ex.field("s"), ex.field("a")),  # truthiness, not the operands
    ex.or_(ex.field("s"), ex.lit(0)),
    ex.IsNull(ex.field("b")),
    ex.not_null(ex.field("T::q")),
    ex.BagProject(ex.field("vals"), "v"),  # inner schema
    ex.BagProject(ex.field("ones"), "x"),  # no inner schema: 1-field items
    ex.BagProject(ex.field("$4"), "$0"),
    ex.field("T::q"),  # qualified
    ex.field("q"),  # unqualified match of T::q
    ex.field("$2"),
    ex.UnaryOp("neg", ex.field("a")),
    ex.UnaryOp("not", ex.field("s")),
    ex.count(ex.field("vals")),
    *[ex.call(name, ex.BagProject(ex.field("vals"), "k")) for name in AGGREGATES],
    ex.call("SUM", ex.field("vals")),  # multi-field items raise
    ex.call("TRUNC", ex.field("b"), ex.lit(1)),
    ex.call("ROUND", ex.field("b")),
    ex.call("FLOOR", ex.field("b")),
    ex.call("ABS", ex.field("a")),
    ex.call("CONCAT", ex.field("s"), ex.field("a"), ex.lit("!")),
    ex.call("SIZE", ex.field("ones")),
    ex.call("SIZE", ex.field("s")),
]


def test_corpus_reaches_every_expression_class_and_function():
    def walk(expr):
        yield expr
        for child in vars(expr).values():
            for item in child if isinstance(child, tuple) else (child,):
                if isinstance(item, ex.Expr):
                    yield from walk(item)

    nodes = [node for expr in CORPUS for node in walk(expr)]
    classes = {type(node) for node in nodes}
    assert classes == {
        ex.Literal, ex.FieldRef, ex.BagProject, ex.BinOp, ex.UnaryOp, ex.IsNull, ex.FuncCall
    }
    called = {node.name.upper() for node in nodes if isinstance(node, ex.FuncCall)}
    assert called == set(ex.FUNCTIONS)


class TestBindMatchesReference:
    @given(exprs, records)
    @settings(max_examples=400, deadline=None)
    def test_generated_expressions(self, expr, record):
        bound = expr.bind(GEN_SCHEMA)
        assert outcome(lambda: bound(record)) == outcome(
            lambda: reference(expr, record, GEN_SCHEMA)
        )

    @pytest.mark.parametrize("expr", CORPUS, ids=repr)
    @given(record=records)
    @settings(max_examples=25, deadline=None)
    def test_corpus(self, expr, record):
        bound = expr.bind(GEN_SCHEMA)
        assert outcome(lambda: bound(record)) == outcome(
            lambda: reference(expr, record, GEN_SCHEMA)
        )

    def test_bag_without_inner_schema_rejects_wide_items(self):
        record = Record((1, 1.0, "", 1, (), (Record((1, 2)),)))
        expr = ex.BagProject(ex.field("ones"), "x")
        assert outcome(lambda: expr.bind(GEN_SCHEMA)(record)) == ("raised", SchemaError)
        assert outcome(lambda: reference(expr, record, GEN_SCHEMA)) == ("raised", SchemaError)

    def test_binding_resolves_references_once(self, monkeypatch):
        calls = []
        original = Schema.index_of
        monkeypatch.setattr(
            Schema, "index_of", lambda self, ref: calls.append(ref) or original(self, ref)
        )
        bound = ex.and_(
            ex.gt(ex.field("a"), ex.lit(1)), ex.eq(ex.field("T::q"), ex.field("$3"))
        ).bind(GEN_SCHEMA)
        resolved = len(calls)
        for n in range(10):
            bound(Record((n, 0.0, "", n, (), ())))
        assert resolved == 3 and len(calls) == resolved
