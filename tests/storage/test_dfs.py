"""Tests for the trusted DFS model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FileAlreadyExists, FileNotFound, StorageError
from repro.common.records import Record, records_from_rows
from repro.storage.dfs import TrustedDFS


def small_dfs(block_bytes=64):
    return TrustedDFS(block_bytes=block_bytes)


class TestNamespace:
    def test_create_read_roundtrip(self):
        dfs = small_dfs()
        records = records_from_rows([(1, "a"), (2, "b")])
        dfs.write_file("f", records)
        assert dfs.read("f") == records

    def test_create_duplicate_rejected(self):
        dfs = small_dfs()
        dfs.create("f")
        with pytest.raises(FileAlreadyExists):
            dfs.create("f")

    def test_read_missing_rejected(self):
        with pytest.raises(FileNotFound):
            small_dfs().read("ghost")

    def test_delete_then_recreate(self):
        dfs = small_dfs()
        dfs.write_file("f", records_from_rows([(1,)]))
        dfs.delete("f")
        assert not dfs.exists("f")
        dfs.write_file("f", records_from_rows([(2,)]))
        assert dfs.read("f") == [Record((2,))]

    def test_delete_missing_rejected(self):
        with pytest.raises(FileNotFound):
            small_dfs().delete("ghost")

    def test_list_files_with_prefix(self):
        dfs = small_dfs()
        for name in ("a/1", "a/2", "b/1"):
            dfs.write_file(name, [])
        assert dfs.list_files("a/") == ["a/1", "a/2"]
        assert dfs.list_files() == ["a/1", "a/2", "b/1"]


class TestAppendOnly:
    def test_append_after_close_rejected(self):
        dfs = small_dfs()
        dfs.write_file("f", records_from_rows([(1,)]))  # closes the file
        with pytest.raises(StorageError):
            dfs.append("f", records_from_rows([(2,)]))

    def test_appends_accumulate(self):
        dfs = small_dfs()
        dfs.create("f")
        dfs.append("f", records_from_rows([(1,)]))
        dfs.append("f", records_from_rows([(2,)]))
        assert dfs.read("f") == records_from_rows([(1,), (2,)])


class TestBlocks:
    def test_records_packed_into_blocks(self):
        dfs = small_dfs(block_bytes=32)
        records = records_from_rows([(i, "x" * 8) for i in range(10)])
        dfs.write_file("f", records)
        assert dfs.num_blocks("f") > 1
        # Reassembling blocks in order reproduces the file.
        reassembled = []
        for index in range(dfs.num_blocks("f")):
            reassembled.extend(dfs.read_block("f", index).records)
        assert reassembled == records

    def test_block_sizes_respect_limit(self):
        dfs = small_dfs(block_bytes=64)
        records = records_from_rows([(i,) for i in range(100)])
        dfs.write_file("f", records)
        for block in dfs.file_info("f").blocks:
            assert block.size_bytes <= 64 or len(block.records) == 1

    def test_read_block_out_of_range(self):
        dfs = small_dfs()
        dfs.write_file("f", records_from_rows([(1,)]))
        with pytest.raises(StorageError):
            dfs.read_block("f", 99)

    def test_oversized_record_gets_own_block(self):
        dfs = small_dfs(block_bytes=8)
        records = records_from_rows([("long-string-beyond-block",)])
        dfs.write_file("f", records)
        assert dfs.num_blocks("f") == 1

    @given(st.lists(st.tuples(st.integers(), st.text(max_size=12)), max_size=60))
    @settings(max_examples=50)
    def test_block_packing_preserves_order_and_content(self, rows):
        dfs = small_dfs(block_bytes=48)
        records = records_from_rows(rows)
        dfs.write_file("f", records)
        assert dfs.read("f") == records
        assert dfs.file_info("f").num_records == len(records)


class TestPlacement:
    def test_blocks_get_locations_when_nodes_declared(self):
        dfs = TrustedDFS(block_bytes=32, replication=2)
        dfs.set_placement_nodes(["n1", "n2", "n3"])
        dfs.write_file("f", records_from_rows([(i, "pad") for i in range(20)]))
        for block in dfs.file_info("f").blocks:
            assert len(block.locations) == 2
            assert set(block.locations) <= {"n1", "n2", "n3"}

    def test_placement_rotates(self):
        dfs = TrustedDFS(block_bytes=16, replication=1)
        dfs.set_placement_nodes(["n1", "n2"])
        dfs.write_file("f", records_from_rows([(i, "pad") for i in range(20)]))
        first = {b.locations[0] for b in dfs.file_info("f").blocks}
        assert first == {"n1", "n2"}

    def test_no_locations_without_nodes(self):
        dfs = small_dfs()
        dfs.write_file("f", records_from_rows([(1,)]))
        assert dfs.file_info("f").blocks[0].locations == ()


class TestAccounting:
    def test_global_counters_accumulate(self):
        dfs = small_dfs()
        records = records_from_rows([(1, "abc")])
        dfs.write_file("f", records)
        dfs.read("f")
        assert dfs.global_counters.bytes_written > 0
        assert dfs.global_counters.bytes_read == dfs.global_counters.bytes_written
        assert dfs.global_counters.files_created == 1
        assert dfs.global_counters.records_read == 1

    def test_scoped_counters_are_separate(self):
        dfs = small_dfs()
        dfs.write_file("f", records_from_rows([(1,)]), scope="jobA")
        dfs.read("f", scope="jobB")
        assert dfs.counters_for("jobA").bytes_written > 0
        assert dfs.counters_for("jobA").bytes_read == 0
        assert dfs.counters_for("jobB").bytes_read > 0

    def test_reset_scope(self):
        dfs = small_dfs()
        dfs.write_file("f", records_from_rows([(1,)]), scope="jobA")
        dfs.reset_scope("jobA")
        assert dfs.counters_for("jobA").bytes_written == 0

    def test_file_info_does_not_count(self):
        dfs = small_dfs()
        dfs.write_file("f", records_from_rows([(1,)]))
        before = dfs.global_counters.bytes_read
        dfs.file_info("f")
        assert dfs.global_counters.bytes_read == before

    def test_invalid_block_bytes_rejected(self):
        with pytest.raises(StorageError):
            TrustedDFS(block_bytes=0)


def reference_append(dfs, name, records, scope=""):
    """``TrustedDFS.append`` as it was before blocks were cut from
    cumulative sizes: one record at a time (kept verbatim)."""
    file = dfs._get(name)
    if file.closed:
        raise StorageError(f"file is closed: {name}")
    written = 0
    pending = []
    pending_bytes = 0
    for record in records:
        rec_bytes = record.size_bytes()
        if pending and pending_bytes + rec_bytes > dfs.block_bytes:
            dfs._flush_block(file, pending, pending_bytes)
            pending, pending_bytes = [], 0
        pending.append(record)
        pending_bytes += rec_bytes
        written += rec_bytes
    if pending:
        dfs._flush_block(file, pending, pending_bytes)
    counters = dfs._counters(scope)
    counters.bytes_written += written
    counters.records_written += len(records)
    dfs.global_counters.bytes_written += written
    dfs.global_counters.records_written += len(records)
    return written


def dfs_state(dfs):
    """Everything an append can change, in comparable form."""
    files = {
        name: [
            (block.index, block.records, block.size_bytes, block.locations)
            for block in dfs.file_info(name).blocks
        ]
        for name in dfs.list_files()
    }
    scoped = {scope: vars(counters) for scope, counters in dfs._scoped.items()}
    return files, scoped, vars(dfs.global_counters), dfs._placement_cursor


# Records from 1 to ~60 encoded bytes; a block may be smaller than one.
sized_records = st.lists(
    st.builds(lambda n: Record(("x" * n,)), st.integers(0, 50)), max_size=30
)


class TestBlockPackingEquivalence:
    @given(
        appends=st.lists(sized_records, min_size=1, max_size=4),
        block_bytes=st.integers(1, 200),
        nodes=st.integers(0, 4),
        replication=st.integers(1, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_blocks_counters_and_placement_as_reference(
        self, appends, block_bytes, nodes, replication
    ):
        dfs, reference = (
            TrustedDFS(block_bytes=block_bytes, replication=replication) for _ in range(2)
        )
        for target in (dfs, reference):
            target.set_placement_nodes([f"n{i}" for i in range(nodes)])
            target.create("f", scope="s")
        for records in appends:  # repeated appends to one file
            assert dfs.append("f", records, scope="s") == reference_append(
                reference, "f", records, scope="s"
            )
            assert dfs_state(dfs) == dfs_state(reference)
        assert dfs.file_info("f").size_bytes == reference.file_info("f").size_bytes

    @pytest.mark.parametrize(
        "sizes,block_bytes",
        [([], 64), ([10], 4), ([10], 10), ([3, 3, 3], 6), ([100, 1, 1], 8), ([1, 1, 100], 8)],
    )
    def test_edge_cases(self, sizes, block_bytes):
        records = [Record(("x" * n,)) for n in sizes]
        dfs, reference = (TrustedDFS(block_bytes=block_bytes) for _ in range(2))
        for target in (dfs, reference):
            target.create("f")
        assert dfs.append("f", records) == reference_append(reference, "f", records)
        assert dfs_state(dfs) == dfs_state(reference)
