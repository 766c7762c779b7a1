"""Trusted distributed-file-system model.

The paper *assumes* a trusted storage layer ("we focus on computation
and assume a trusted storage layer", §2.3, citing DepSky for
feasibility).  This module provides the interfaces the rest of the
system needs from such a layer:

* an append-only namespace of files made of :class:`~repro.common.records.Record`s
  (cloud stores favour append-only semantics — paper §1),
* block-based input splits for MapReduce,
* byte accounting (the "HDFS write (Bytes)" row of paper Table 3),
* simulated data locality: each block lists the worker nodes holding a
  replica, which the scheduler uses to prefer data-local tasks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

from repro.common.errors import FileAlreadyExists, FileNotFound, StorageError
from repro.common.ids import NodeId
from repro.common.records import Record, encoded_sizes

#: Read-path fault hook: (file name, block index, reading node, records)
#: -> the records that node actually observes.  Installed by the engine
#: to model per-node bit-rot; the DFS contents themselves stay pristine
#: (the storage layer is trusted — the *node's read path* is not).
ReadFault = Callable[[str, int, NodeId, list[Record]], list[Record]]

DEFAULT_BLOCK_BYTES = 64 * 1024 * 1024  # HDFS default in Hadoop 1.x


@dataclass
class Block:
    """One storage block: a run of records plus its replica locations."""

    index: int
    records: list[Record]
    size_bytes: int
    locations: tuple[NodeId, ...] = ()


@dataclass
class DfsFile:
    """An immutable-once-closed, append-only file."""

    name: str
    blocks: list[Block] = field(default_factory=list)
    closed: bool = False

    @property
    def num_records(self) -> int:
        return sum(len(b.records) for b in self.blocks)

    @property
    def size_bytes(self) -> int:
        return sum(b.size_bytes for b in self.blocks)

    def records(self) -> list[Record]:
        out: list[Record] = []
        for block in self.blocks:
            out.extend(block.records)
        return out


@dataclass
class StorageCounters:
    """Aggregate byte counters, attributable per scope (e.g. per job)."""

    bytes_read: int = 0
    bytes_written: int = 0
    files_created: int = 0
    records_read: int = 0
    records_written: int = 0

    def add(self, other: "StorageCounters") -> None:
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.files_created += other.files_created
        self.records_read += other.records_read
        self.records_written += other.records_written


class TrustedDFS:
    """In-memory trusted DFS with per-scope accounting.

    ``scope`` arguments attribute I/O to a job (or replica) so Table 3's
    resource multipliers can be computed; the global counters always
    accumulate regardless of scope.
    """

    def __init__(
        self,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        replication: int = 3,
    ) -> None:
        if block_bytes <= 0:
            raise StorageError("block_bytes must be > 0")
        self.block_bytes = block_bytes
        self.replication = replication
        self._read_fault: ReadFault | None = None
        self._files: dict[str, DfsFile] = {}
        self._placement_nodes: list[NodeId] = []
        self._placement_cursor = 0
        self.global_counters = StorageCounters()
        self._scoped: dict[str, StorageCounters] = {}

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------

    def set_placement_nodes(self, nodes: list[NodeId]) -> None:
        """Declare the worker nodes over which new blocks are placed
        (round-robin with ``replication`` copies), enabling locality."""
        self._placement_nodes = list(nodes)

    def set_read_fault(self, hook: ReadFault | None) -> None:
        """Install (or clear) the per-node read-path fault injector."""
        self._read_fault = hook

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._files if n.startswith(prefix))

    def create(self, name: str, scope: str = "") -> DfsFile:
        """Create an empty file; fails if it exists (append-only DFS
        forbids overwrite-in-place)."""
        if name in self._files:
            raise FileAlreadyExists(name)
        file = DfsFile(name=name)
        self._files[name] = file
        self._counters(scope).files_created += 1
        self.global_counters.files_created += 1
        return file

    def delete(self, name: str) -> None:
        """Remove a file, so that its name can be written afresh.  The
        append-only data path never deletes: the controller's
        ``load_input`` and the engine's ``_complete_job`` use this to
        replace whatever an earlier run left at a path."""
        if name not in self._files:
            raise FileNotFound(name)
        del self._files[name]

    def _get(self, name: str) -> DfsFile:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFound(name) from None

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def append(self, name: str, records: list[Record], scope: str = "") -> int:
        """Append ``records`` to ``name``; returns bytes written.

        Each block takes the following records while its size stays at
        most ``block_bytes``, and always at least one record.  This is
        the one block packer: :meth:`write_layout` and :meth:`copy` only
        re-flush blocks that it packed.
        """
        file = self._get(name)
        if file.closed:
            raise StorageError(f"file is closed: {name}")
        # ends[i]: bytes of records[:i + 1]; a block is the run of records
        # whose end offsets fit within block_bytes of the block's start.
        ends = list(accumulate(encoded_sizes(records)))
        start = offset = 0
        while start < len(records):
            stop = max(bisect_right(ends, offset + self.block_bytes, start), start + 1)
            self._flush_block(file, records[start:stop], ends[stop - 1] - offset)
            start, offset = stop, ends[stop - 1]
        self._count_write(scope, offset, len(records))
        return offset

    def close(self, name: str) -> None:
        """Seal a file; further appends fail."""
        self._get(name).closed = True

    def write_file(self, name: str, records: list[Record], scope: str = "") -> DfsFile:
        """Create + append + close in one call (loader convenience)."""
        self.create(name, scope=scope)
        self.append(name, records, scope=scope)
        self.close(name)
        return self._get(name)

    def write_layout(self, name: str, blocks: list[Block], scope: str = "") -> DfsFile:
        """``write_file(name, records)`` for the records of ``blocks``,
        which :meth:`append` packed into an empty file of this DFS.

        Packing depends only on the records' sizes and ``block_bytes``,
        so the same records pack into the same blocks again: each block
        is flushed as it is, placed like a new one (the placement cursor
        advances once per block), and the counters move exactly as that
        ``write_file`` would move them, without measuring a record.
        """
        file = self.create(name, scope=scope)
        written = records = 0
        for block in blocks:
            self._flush_block(file, list(block.records), block.size_bytes)
            written += block.size_bytes
            records += len(block.records)
        self._count_write(scope, written, records)
        self.close(name)
        return file

    def copy(self, source: str, target: str, scope: str = "") -> DfsFile:
        """``write_file(target, read(source, scope), scope)``, block by
        block.

        Sound because every file in this DFS was written by one
        :meth:`append` into an empty file (``write_file`` is the only
        writer outside tests), so its blocks are exactly how ``append``
        packs its records; :meth:`write_layout` re-flushes them.
        """
        file = self._get(source)
        self._count_read(scope, file.size_bytes, file.num_records)
        return self.write_layout(target, file.blocks, scope)

    def read(self, name: str, scope: str = "") -> list[Record]:
        """Read a whole file, counting the bytes against ``scope``."""
        file = self._get(name)
        records = file.records()
        self._count_read(scope, file.size_bytes, len(records))
        return records

    def read_block(
        self,
        name: str,
        block_index: int,
        scope: str = "",
        node_id: NodeId | None = None,
    ) -> Block:
        """Read one block (the unit a map task consumes).

        ``node_id`` identifies the worker doing the read; a registered
        read-fault hook may then hand that node a bit-rotten view of the
        block without touching the trusted copy.
        """
        file = self._get(name)
        try:
            block = file.blocks[block_index]
        except IndexError:
            raise StorageError(f"{name} has no block {block_index}") from None
        if self._read_fault is not None and node_id is not None:
            observed = self._read_fault(name, block.index, node_id, block.records)
            if observed is not block.records:
                block = Block(
                    index=block.index,
                    records=observed,
                    size_bytes=block.size_bytes,
                    locations=block.locations,
                )
        self._count_read(scope, block.size_bytes, len(block.records))
        return block

    def file_info(self, name: str) -> DfsFile:
        """Metadata access without byte accounting."""
        return self._get(name)

    def num_blocks(self, name: str) -> int:
        return len(self._get(name).blocks)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _counters(self, scope: str) -> StorageCounters:
        if scope not in self._scoped:
            self._scoped[scope] = StorageCounters()
        return self._scoped[scope]

    def counters_for(self, scope: str) -> StorageCounters:
        return self._counters(scope)

    def _count_read(self, scope: str, size: int, records: int) -> None:
        for counters in (self._counters(scope), self.global_counters):
            counters.bytes_read += size
            counters.records_read += records

    def _count_write(self, scope: str, size: int, records: int) -> None:
        for counters in (self._counters(scope), self.global_counters):
            counters.bytes_written += size
            counters.records_written += records

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _flush_block(self, file: DfsFile, records: list[Record], size: int) -> None:
        locations: tuple[NodeId, ...] = ()
        if self._placement_nodes:
            picks = []
            for offset in range(min(self.replication, len(self._placement_nodes))):
                idx = (self._placement_cursor + offset) % len(self._placement_nodes)
                picks.append(self._placement_nodes[idx])
            self._placement_cursor = (self._placement_cursor + 1) % len(self._placement_nodes)
            locations = tuple(picks)
        file.blocks.append(
            Block(
                index=len(file.blocks),
                records=records,
                size_bytes=size,
                locations=locations,
            )
        )
