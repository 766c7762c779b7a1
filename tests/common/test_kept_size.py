"""Each record sized once (DESIGN.md §30).

A record keeps the length of its encoding in a slot that
``Record.encoded`` sets, and ``encoded_sizes`` is the one way a stream
is sized: it reads the kept lengths in one pass when every record has
one, and encodes otherwise.  These tests compare it with the reference
encoder on measured, unmeasured and mixed lists, check that the DFS
packs a mixed list exactly as it packs unmeasured copies, and pin the
size of a record."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import Record, encoded_sizes
from repro.faults.behaviors import tamper
from repro.storage.dfs import TrustedDFS
from tests.common.test_hash_once import nested
from tests.common.test_records import reference_encode
from tests.storage.test_dfs import dfs_state

#: Records whose fields are nested tuples, bags, records, odd scalars
#: and subclasses, each with a flag: measure it before sizing the list.
flagged = st.lists(
    st.tuples(st.lists(nested, max_size=3).map(Record), st.booleans()), max_size=30
)


def measured(flagged_records) -> list[Record]:
    """The records, with each flagged one encoded (and so measured)."""
    for record, measure in flagged_records:
        if measure:
            record.encoded()
    return [record for record, _ in flagged_records]


def unmeasured_copies(records: list[Record]) -> list[Record]:
    return [Record(record.fields) for record in records]


def reference_sizes(records: list[Record]) -> list[int]:
    return [len(reference_encode(record.fields)) for record in records]


class TestEncodedSizes:
    @given(flagged)
    @settings(max_examples=80, deadline=None)
    def test_matches_the_reference_on_any_mix(self, flagged_records):
        records = measured(flagged_records)
        assert encoded_sizes(records) == reference_sizes(records)
        # Sizing measured every record, and each kept size is its bytes'.
        assert [record._size for record in records] == list(
            map(len, map(Record.encoded, records))
        )

    @given(flagged)
    @settings(max_examples=30, deadline=None)
    def test_all_measured_and_none_measured(self, flagged_records):
        records = [record for record, _ in flagged_records]
        fresh = unmeasured_copies(records)
        assert encoded_sizes(fresh) == reference_sizes(records)
        assert encoded_sizes(fresh) == reference_sizes(records)  # now all measured

    def test_a_measured_list_is_sized_without_encoding(self, monkeypatch):
        records = [Record((n, "x" * n, (n, [n, None]))) for n in range(20)]
        expected = encoded_sizes(records)

        def refuse(record):
            raise AssertionError("a measured record was encoded again")

        monkeypatch.setattr(Record, "encoded", refuse)
        assert encoded_sizes(records) == expected

    def test_an_unmeasured_record_has_no_kept_size(self):
        record = Record((1, "a"))
        with pytest.raises(AttributeError):
            record._size
        assert record.size_bytes() == len(reference_encode(record.fields))
        assert record._size == len(record._encoded)

    def test_a_tampered_record_carries_its_own_size(self):
        honest = Record((1, "a", (2.5, None), [True, "b"]))
        (kept,) = encoded_sizes([honest])
        bad = tamper(honest)
        assert bad is not honest and not hasattr(bad, "_size")
        assert encoded_sizes([honest, bad]) == reference_sizes([honest, bad])
        assert bad.size_bytes() != kept == honest.size_bytes()

    def test_size_of_a_record_is_pinned(self):
        """The fourth slot grows the object from 56 to 64 bytes, which the
        allocator's 16-byte size classes already gave a three-slot record:
        each record still takes one 64-byte block."""
        size = sys.getsizeof(Record((1, 2)))
        assert size == 64
        assert -(-size // 16) * 16 == -(-56 // 16) * 16 == 64


class TestAppendOnAMixedList:
    @given(flagged, st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_blocks_sizes_and_counters_equal_unmeasured_copies(
        self, flagged_records, block_bytes
    ):
        records = measured(flagged_records)
        copies = unmeasured_copies(records)
        dfs_mixed, dfs_fresh = TrustedDFS(block_bytes), TrustedDFS(block_bytes)
        for dfs, batch in ((dfs_mixed, records), (dfs_fresh, copies)):
            dfs.set_placement_nodes(["n0", "n1", "n2", "n3"])
            dfs.write_file("f", batch, scope="job")
        assert dfs_state(dfs_mixed) == dfs_state(dfs_fresh)
        assert sum(block.size_bytes for block in dfs_mixed.file_info("f").blocks) == sum(
            reference_sizes(records)
        )

    def test_one_list_per_block_and_per_file(self):
        dfs = TrustedDFS(block_bytes=30)
        records = [Record((n, "abc")) for n in range(12)]
        dfs.write_file("a", records)
        dfs.copy("a", "b")
        blocks_a, blocks_b = dfs.file_info("a").blocks, dfs.file_info("b").blocks
        assert len(blocks_a) > 1
        assert all(block.records is not records for block in blocks_a)
        assert [block.records for block in blocks_a] == [block.records for block in blocks_b]
        assert all(x.records is not y.records for x, y in zip(blocks_a, blocks_b))
