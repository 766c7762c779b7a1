"""Tests for the record model and its canonical encoding."""

import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import (
    Record,
    encode_record,
    encode_value,
    records_from_rows,
)
from repro.faults.behaviors import CommissionBehavior


def reference_encode(value):
    """The ``isinstance``-ladder encoder the repo shipped until the
    table-dispatched one replaced it, verbatim but for the name and with
    no cache: the oracle for every byte ``encode_value`` produces."""
    if value is None:
        return b"N;"
    if value is True:
        return b"b1;"
    if value is False:
        return b"b0;"
    if isinstance(value, int):
        body = str(value).encode()
        return b"i" + str(len(body)).encode() + b":" + body + b";"
    if isinstance(value, float):
        body = repr(value).encode()
        return b"f" + str(len(body)).encode() + b":" + body + b";"
    if isinstance(value, str):
        body = value.encode("utf-8")
        return b"s" + str(len(body)).encode() + b":" + body + b";"
    if isinstance(value, Record):
        return reference_encode(value.fields)
    if isinstance(value, tuple):
        inner = b"".join(reference_encode(v) for v in value)
        return b"t" + str(len(inner)).encode() + b":" + inner + b";"
    if isinstance(value, (list, frozenset)):
        # Bags are canonicalized by sorting their encodings so that replicas
        # that materialize a bag in different orders still digest equally.
        encodings = sorted(reference_encode(v) for v in value)
        inner = b"".join(encodings)
        return b"g" + str(len(inner)).encode() + b":" + inner + b";"
    raise TypeError(f"unsupported field type: {type(value).__name__}")


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    st.text(max_size=8),
)
#: Nested field values: tuples, nested Records, list bags, and frozenset
#: bags of hashable leaves.
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Record),
        st.lists(children, max_size=4),
        st.frozensets(leaves, max_size=4),
    ),
    max_leaves=16,
)


class TestRecord:
    def test_indexing_and_len(self):
        r = Record((1, "a", None))
        assert r[0] == 1 and r[2] is None and len(r) == 3

    def test_equality_and_hash(self):
        assert Record((1, 2)) == Record((1, 2))
        assert hash(Record((1, 2))) == hash(Record((1, 2)))
        assert Record((1, 2)) != Record((2, 1))

    def test_project(self):
        assert Record((1, 2, 3)).project([2, 0]) == Record((3, 1))

    def test_append_returns_new(self):
        base = Record((1,))
        assert base.append(2, 3) == Record((1, 2, 3))
        assert base == Record((1,))

    def test_concat(self):
        assert Record((1,)).concat(Record((2,))) == Record((1, 2))

    def test_size_bytes_positive(self):
        assert Record((1, "hello", 2.5)).size_bytes() > 0

    @given(st.lists(values, max_size=4))
    def test_encoding_is_cached_and_sized_by_reference(self, fields):
        r = Record(fields)
        assert r.encoded() is r.encoded()
        assert r.encoded() == encode_record(r) == reference_encode(r.fields)
        assert r.size_bytes() == len(reference_encode(r.fields))

    def test_derived_records_do_not_alias_cached_bytes(self):
        source, other = Record((1, "a", 2.5)), Record((None,))
        cached = source.encoded()
        derived = [source.project([2, 0]), source.append(7), source.concat(other)]
        for record in derived:
            assert record.encoded() == reference_encode(record.fields)
            assert record.encoded() != cached
        assert source.encoded() is cached

    def test_tampering_does_not_alias_cached_bytes(self):
        sources = records_from_rows([(i, f"u{i}", i / 2) for i in range(20)])
        cached = [r.encoded() for r in sources]
        behavior = CommissionBehavior(probability=1.0, per_record_fraction=0.5)
        tampered = behavior.corrupt_records(sources, random.Random(3))
        assert tampered != sources
        for before, after in zip(sources, tampered):
            assert after.encoded() == reference_encode(after.fields)
            assert (after is before) == (after.fields == before.fields)
        assert [reference_encode(r.fields) for r in sources] == cached


class TestEncoding:
    @given(st.tuples(scalars, scalars, scalars))
    @settings(max_examples=200)
    def test_encoding_roundtrip_equality(self, fields):
        a, b = Record(fields), Record(fields)
        assert encode_record(a) == encode_record(b)

    @given(
        st.lists(scalars, min_size=1, max_size=4),
        st.lists(scalars, min_size=1, max_size=4),
    )
    @settings(max_examples=200)
    def test_encoding_injective(self, left, right):
        a, b = Record(tuple(left)), Record(tuple(right))
        if a != b:
            assert encode_record(a) != encode_record(b)

    def test_type_tags_distinguish_int_from_string(self):
        assert encode_value(1) != encode_value("1")

    def test_type_tags_distinguish_bool_from_int(self):
        assert encode_value(True) != encode_value(1)

    def test_none_encoding(self):
        assert encode_value(None) == b"N;"

    def test_bag_encoding_is_order_independent(self):
        a = [Record((1,)), Record((2,))]
        b = [Record((2,)), Record((1,))]
        assert encode_value(a) == encode_value(b)

    def test_tuple_encoding_is_order_dependent(self):
        assert encode_value((1, 2)) != encode_value((2, 1))

    def test_nested_record_encodes_as_tuple(self):
        assert encode_value(Record((1, 2))) == encode_value((1, 2))

    def test_rejects_unsupported_type(self):
        for unsupported in (object(), b"raw", {1, 2}, {"a": 1}, 1 + 2j):
            with pytest.raises(TypeError):
                encode_value(unsupported)
            with pytest.raises(TypeError):
                encode_value((1, [unsupported]))

    @given(values)
    @settings(max_examples=300)
    def test_matches_reference_encoder(self, value):
        assert encode_value(value) == reference_encode(value)

    @given(st.lists(values, max_size=5), st.randoms(use_true_random=False))
    def test_shuffled_bags_match_reference(self, members, rng):
        shuffled = list(members)
        rng.shuffle(shuffled)
        assert encode_value(shuffled) == reference_encode(members)

    @given(st.frozensets(leaves, max_size=5))
    def test_frozenset_bag_matches_list_bag(self, members):
        assert encode_value(members) == reference_encode(list(members))

    def test_equal_values_of_different_type_stay_distinct(self):
        assert True == 1 == 1.0  # noqa: E712 - the point of the test
        for wrap in (lambda v: v, lambda v: (v,), lambda v: [v], lambda v: Record((v,))):
            encodings = [encode_value(wrap(v)) for v in (True, 1, 1.0)]
            assert len(set(encodings)) == 3
            assert encodings == [reference_encode(wrap(v)) for v in (True, 1, 1.0)]

    def test_subclasses_encode_as_their_base(self):
        Edge = namedtuple("Edge", "user follower")

        class Name(str):
            pass

        class Rows(list):
            pass

        for value, base in (
            (Edge(1, 2), (1, 2)),
            (Name("zoë"), "zoë"),
            (Rows([2, 1]), [1, 2]),
        ):
            assert encode_value(value) == reference_encode(value) == encode_value(base)


class TestHelpers:
    def test_records_from_rows(self):
        records = records_from_rows([(1, 2), (3, 4)])
        assert records == [Record((1, 2)), Record((3, 4))]
