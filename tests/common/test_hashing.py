"""Tests for streaming digests — the verification primitive."""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import (
    StreamingDigest,
    corrupt_digest,
    digest_of,
    record_hash,
)
from repro.common.records import Record

rows = st.lists(
    st.tuples(st.integers(-1000, 1000), st.text(max_size=8)), max_size=40
)


class TestStreamingDigest:
    @given(rows)
    @settings(max_examples=100)
    def test_final_digest_is_order_independent(self, data):
        records = [Record(t) for t in data]
        permuted = list(records)
        random.Random(0).shuffle(permuted)
        assert digest_of(records).value == digest_of(permuted).value

    @given(rows, rows)
    @settings(max_examples=100)
    def test_different_multisets_differ(self, left, right):
        if sorted(map(repr, left)) == sorted(map(repr, right)):
            return
        a = digest_of([Record(t) for t in left])
        b = digest_of([Record(t) for t in right])
        assert a.value != b.value

    def test_duplicate_records_change_digest(self):
        once = digest_of([Record((1,))])
        twice = digest_of([Record((1,)), Record((1,))])
        assert once.value != twice.value

    def test_even_multiplicities_do_not_cancel(self):
        """Regression: an XOR-based multiset hash collides whenever every
        record appears an even number of times — {a,a} and {b,b} both
        fold to zero.  The additive fold must distinguish them."""
        a = digest_of([Record((0, "")), Record((0, ""))])
        b = digest_of([Record((0, "0")), Record((0, "0"))])
        assert a.value != b.value

    def test_record_count_tracked(self):
        digest = digest_of([Record((i,)) for i in range(5)])
        assert digest.record_count == 5

    def test_empty_stream_has_digest(self):
        digest = digest_of([])
        assert digest.record_count == 0
        assert len(digest.value) == 32

    def test_chunking_emits_intermediate_digests(self):
        streaming = StreamingDigest(chunk_size=2)
        chunks = streaming.update_all([Record((i,)) for i in range(5)])
        final = streaming.finalize()
        assert len(chunks) == 2  # after records 2 and 4
        assert all(not c.final for c in chunks)
        assert final.final
        assert [c.chunk_index for c in chunks] == [0, 1]
        assert len(streaming.all_digests()) == 3

    def test_chunk_size_zero_means_single_digest(self):
        streaming = StreamingDigest(chunk_size=0)
        assert streaming.update_all([Record((i,)) for i in range(10)]) == []
        assert len(streaming.all_digests()) == 0
        streaming.finalize()
        assert len(streaming.all_digests()) == 1

    def test_negative_chunk_size_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            StreamingDigest(chunk_size=-1)

    def test_final_digest_same_regardless_of_chunking(self):
        records = [Record((i, "x")) for i in range(9)]
        assert digest_of(records, chunk_size=0).value == digest_of(records, chunk_size=3).value

    @given(rows)
    @settings(max_examples=50)
    def test_matches_bytewise_adhash_reference(self, data):
        """The int accumulator must stay bit-identical to the per-record
        bytes -> int -> bytes fold it replaced, chunk digests included."""
        records = [Record(t) for t in data]
        streaming = StreamingDigest(chunk_size=3)
        streaming.update_all(records)
        streaming.finalize()
        acc = bytes(32)
        expected = []
        for count, record in enumerate(records, start=1):
            total = int.from_bytes(acc, "big") + int.from_bytes(
                record_hash(record), "big"
            )
            acc = (total % (1 << 256)).to_bytes(32, "big")
            if count % 3 == 0:
                expected.append(acc + count.to_bytes(8, "big"))
        expected.append(acc + len(records).to_bytes(8, "big"))
        assert [d.value for d in streaming.all_digests()] == [
            hashlib.sha256(e).digest() for e in expected
        ]


class TestCorruptDigest:
    def test_flips_exactly_one_bit(self):
        digest = digest_of([Record((1,))])
        bad = corrupt_digest(digest)
        assert bad.value != digest.value
        diff = bytes(a ^ b for a, b in zip(digest.value, bad.value))
        assert sum(bin(b).count("1") for b in diff) == 1

    def test_preserves_metadata(self):
        digest = digest_of([Record((1,))])
        bad = corrupt_digest(digest)
        assert bad.record_count == digest.record_count
        assert bad.final == digest.final


class TestRecordHash:
    def test_distinct_records_distinct_hashes(self):
        assert record_hash(Record((1,))) != record_hash(Record((2,)))

    def test_hash_is_32_bytes(self):
        assert len(record_hash(Record(("x",)))) == 32
