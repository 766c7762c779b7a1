"""Tests for schemas and field resolution."""

import pytest

from repro.common.errors import SchemaError
from repro.dataflow.schema import BAG, CHARARRAY, INT, Field, Schema, is_numeric


class TestField:
    def test_rejects_unknown_type(self):
        with pytest.raises(SchemaError):
            Field("x", "complex128")

    def test_inner_schema_only_on_bags(self):
        inner = Schema.of(("a", INT))
        Field("b", BAG, inner)  # fine
        with pytest.raises(SchemaError):
            Field("b", INT, inner)

    def test_qualified_renames_once(self):
        field = Field("user", INT)
        qualified = field.qualified("A")
        assert qualified.name == "A::user"
        assert qualified.qualified("B").name == "A::user"  # idempotent


class TestResolution:
    def setup_method(self):
        self.schema = Schema.of(("user", INT), ("name", CHARARRAY))

    def test_by_name(self):
        assert self.schema.index_of("name") == 1

    def test_by_position(self):
        assert self.schema.index_of("$0") == 0

    def test_position_out_of_range(self):
        with pytest.raises(SchemaError):
            self.schema.index_of("$5")

    def test_bad_position_syntax(self):
        with pytest.raises(SchemaError):
            self.schema.index_of("$x")

    def test_unknown_name(self):
        with pytest.raises(SchemaError):
            self.schema.index_of("ghost")

    def test_type_of(self):
        assert self.schema.type_of("user") == INT


class TestQualifiedResolution:
    def setup_method(self):
        left = Schema.of(("user", INT), ("follower", INT)).qualify("A")
        right = Schema.of(("user", INT), ("follower", INT)).qualify("B")
        self.joined = left.concat(right)

    def test_qualified_reference(self):
        assert self.joined.index_of("A::user") == 0
        assert self.joined.index_of("B::follower") == 3

    def test_unqualified_ambiguous_rejected(self):
        with pytest.raises(SchemaError):
            self.joined.index_of("user")

    def test_unqualified_unique_suffix_resolves(self):
        schema = Schema.of("x").qualify("A").concat(Schema.of("y").qualify("B"))
        assert schema.index_of("x") == 0
        assert schema.index_of("y") == 1

    def test_duplicate_exact_names_ambiguous(self):
        schema = Schema([Field("user", INT), Field("user", INT)])
        with pytest.raises(SchemaError):
            schema.index_of("user")


class TestMemoisedResolution:
    """``index_of`` keeps what it resolved; the answer must be the one a
    schema that never resolved anything gives."""

    FIELDS = [Field("A::user", INT), Field("A::follower", INT), Field("B::user", INT),
              Field("n", INT), Field("dup", INT), Field("dup", INT)]
    GOOD = ["$0", "$5", "A::user", "B::user", "A::follower", "follower", "n"]
    BAD = ["$6", "$-1", "$x", "$", "user", "dup", "ghost", "C::user", ""]

    def test_memoised_equals_unmemoised_for_every_ref_form(self):
        warm = Schema(self.FIELDS)
        for _ in range(3):
            for ref in self.GOOD:
                assert warm.index_of(ref) == Schema(self.FIELDS).index_of(ref)
        assert warm.type_of("n") == INT

    def test_errors_are_raised_every_time_and_never_cached(self):
        schema = Schema(self.FIELDS)
        for _ in range(3):
            for ref in self.BAD:
                with pytest.raises(SchemaError):
                    schema.index_of(ref)
        # A failed lookup leaves later good ones intact, and vice versa.
        assert [schema.index_of(ref) for ref in self.GOOD] == [0, 5, 0, 2, 1, 1, 3]
        with pytest.raises(SchemaError):
            schema.index_of("user")

    def test_memo_is_per_instance_and_outside_equality(self):
        warm, cold = Schema(self.FIELDS), Schema(self.FIELDS)
        warm.index_of("n")
        assert warm == cold and hash(warm) == hash(cold)
        # Same ref, different schema, different answer.
        assert warm.project([3, 0]).index_of("n") == 0
        assert warm.qualify("Z").index_of("n") == 3 == warm.index_of("n")


class TestDerivedSchemas:
    def test_project(self):
        schema = Schema.of("a", "b", "c")
        assert schema.project([2, 0]).names() == ["c", "a"]

    def test_concat(self):
        assert Schema.of("a").concat(Schema.of("b")).names() == ["a", "b"]

    def test_rename(self):
        renamed = Schema.of(("a", INT)).rename(["x"])
        assert renamed.names() == ["x"]
        assert renamed.type_of("x") == INT

    def test_rename_arity_mismatch(self):
        with pytest.raises(SchemaError):
            Schema.of("a", "b").rename(["x"])

    def test_rename_preserves_inner_bag_schema(self):
        inner = Schema.of(("t", INT))
        schema = Schema([Field("b", BAG, inner)]).rename(["bag2"])
        assert schema.field(0).inner == inner

    def test_equality_and_hash(self):
        assert Schema.of(("a", INT)) == Schema.of(("a", INT))
        assert hash(Schema.of("a")) == hash(Schema.of("a"))


def test_is_numeric():
    assert is_numeric(INT)
    assert not is_numeric(CHARARRAY)
