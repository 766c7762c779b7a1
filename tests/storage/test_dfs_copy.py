"""Block copies (DESIGN.md §28): ``TrustedDFS.copy`` and
``TrustedDFS.write_layout`` re-flush blocks that ``append`` packed, and
must leave everything exactly as ``write_file(target, read(source))``
leaves it: the blocks, their sizes and locations, the placement cursor,
and the scoped and global counters.

Both rest on one invariant: every stored file was written by one
``append`` into an empty file, so its blocks are how ``append`` packs
its records.  It is checked here on its own, and on every file a
hardened run stores.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.records import Record
from repro.core.controller import ClusterBFTController
from repro.storage.dfs import TrustedDFS
from repro.workloads import TWO_HOP_ANALYSIS, follower_edges
from tests.common.test_records import values
from tests.mapreduce.test_replica_sharing import EDGES_PATH, SEED, config

NAN = float("nan")
lookalikes = st.sampled_from([None, 1, 1.0, True, 0, 0.0, -0.0, False, NAN, "1"])
records = st.lists(
    st.lists(st.one_of(lookalikes, values), max_size=4).map(Record), max_size=30
)
block_sizes = st.sampled_from([1, 7, 64, 1 << 20])
NODES = ["n0", "n1", "n2", "n3", "n4"]
OVERSIZED = [Record(("x" * 200,)), Record((1,)), Record(("y" * 300, (2.0, None)))]


def dfs_with(block_bytes, data, lead):
    """A DFS holding ``data`` at ``src`` (written as ``write_file``
    writes), after ``lead`` other files moved the placement cursor."""
    dfs = TrustedDFS(block_bytes=block_bytes, replication=2)
    dfs.set_placement_nodes(NODES)
    for index in range(lead):
        dfs.write_file(f"lead{index}", [Record((index,))], scope="lead")
    dfs.write_file("src", data, scope="writer")
    return dfs


def layout(dfs, name):
    file = dfs.file_info(name)
    return file.closed, [
        (block.index, block.size_bytes, block.locations, [r.encoded() for r in block.records])
        for block in file.blocks
    ]


def state(dfs, name):
    """Everything a write can leave behind."""
    return {
        "layout": layout(dfs, name),
        "cursor": dfs._placement_cursor,
        "scoped": {scope: vars(c) for scope, c in sorted(dfs._scoped.items())},
        "global": vars(dfs.global_counters),
    }


class TestCopyEqualsRewrite:
    @given(records, block_sizes, st.integers(0, 4), st.sampled_from(["", "job"]))
    @settings(max_examples=50, deadline=None)
    @example([], 7, 0, "")
    @example(OVERSIZED, 64, 1, "job")
    @example(OVERSIZED, 1, 3, "")
    def test_copy_matches_write_file_of_read(self, data, block_bytes, lead, scope):
        copied = dfs_with(block_bytes, data, lead)
        rewritten = dfs_with(block_bytes, data, lead)
        copied.copy("src", "dst", scope=scope)
        rewritten.write_file("dst", rewritten.read("src", scope=scope), scope=scope)
        assert state(copied, "dst") == state(rewritten, "dst")
        # The copy keeps the source's record objects, as the rewrite does.
        assert all(
            a is b
            for a, b in zip(copied.file_info("dst").records(), copied.file_info("src").records())
        )

    @given(records, block_sizes, st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    @example([], 1, 0)
    @example(OVERSIZED, 64, 2)
    def test_write_layout_matches_write_file(self, data, block_bytes, lead):
        laid = dfs_with(block_bytes, data, lead)
        written = dfs_with(block_bytes, data, lead)
        laid.write_layout("dst", laid.file_info("src").blocks, scope="replica")
        written.write_file("dst", data, scope="replica")
        assert state(laid, "dst") == state(written, "dst")

    def test_the_cursor_advances_once_per_block(self):
        dfs = dfs_with(8, [Record((i, "pad")) for i in range(6)], 0)
        blocks = len(dfs.file_info("src").blocks)
        before = dfs._placement_cursor
        dfs.copy("src", "dst")
        assert blocks > 1
        assert dfs._placement_cursor == (before + blocks) % len(NODES)

    def test_copy_of_an_empty_file_creates_it(self):
        dfs = dfs_with(64, [], 0)
        dfs.copy("src", "dst", scope="s")
        assert dfs.exists("dst") and dfs.file_info("dst").closed
        assert dfs.counters_for("s").files_created == 1
        assert dfs.read("dst") == []


class TestOneAppendInvariant:
    """What makes a block copy sound."""

    @given(records, block_sizes)
    @settings(max_examples=30, deadline=None)
    def test_write_file_blocks_are_how_append_packs_the_records(self, data, block_bytes):
        dfs = dfs_with(block_bytes, data, 0)
        repacked = TrustedDFS(block_bytes=block_bytes)
        repacked.write_file("again", dfs.read("src"))
        sizes = [(len(b.records), b.size_bytes) for b in dfs.file_info("src").blocks]
        assert sizes == [(len(b.records), b.size_bytes) for b in repacked.file_info("again").blocks]

    def test_a_second_append_is_what_the_invariant_rules_out(self):
        """Two appends can pack differently from one, so a file written
        that way could not be copied block by block: nothing in the
        program writes one."""
        dfs = TrustedDFS(block_bytes=1 << 20)
        dfs.create("two")
        dfs.append("two", [Record((1,))])
        dfs.append("two", [Record((2,))])
        dfs.write_file("one", dfs.read("two"))
        assert dfs.num_blocks("two") == 2 and dfs.num_blocks("one") == 1

    def test_every_file_a_hardened_run_stores_is_one_append(self):
        cfg = config(checkpoints=True, digest_chunk_records=100)
        controller = ClusterBFTController(cfg, block_bytes=4096)
        controller.load_input(
            EDGES_PATH, follower_edges(300, num_users=120, rng=random.Random(SEED))
        )
        assert controller.run_assured(TWO_HOP_ANALYSIS).assured
        dfs = controller.dfs
        names = dfs.list_files()
        assert any("/verified/" in name for name in names)
        for name in names:
            repacked = TrustedDFS(block_bytes=dfs.block_bytes)
            repacked.write_file(name, dfs.read(name))
            assert [
                (len(b.records), b.size_bytes) for b in dfs.file_info(name).blocks
            ] == [
                (len(b.records), b.size_bytes) for b in repacked.file_info(name).blocks
            ], name
