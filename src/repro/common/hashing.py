"""Digest utilities for verification points.

The paper computes a SHA-256 digest of "the data streaming through the
verification point" and, in §6.4, raises *approximation accuracy* by
emitting one digest per ``d`` lines instead of a single digest for the
whole stream.  :class:`StreamingDigest` implements both behaviours.

A digest must not depend on record arrival order (replicas may shuffle
differently), so we fold each record's hash into an order-independent
accumulator: the *sum* of per-record SHA-256 values modulo 2**256 plus a
running count (the AdHash multiset-hash construction).  Addition — not
XOR — is essential: XOR cancels on even multiplicities, so two streams
each containing any record an even number of times would collide
regardless of content.  With addition, multiplicities accumulate and a
collision requires finding SHA-256 outputs with matching sums, which is
the construction's standard hardness assumption.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable

from repro.common.records import Record

DIGEST_SIZE = 32  # SHA-256


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def record_hash(encoding: bytes) -> bytes:
    """SHA-256 of a record's canonical encoding."""
    return hashlib.sha256(encoding).digest()


def record_digest(record: Record) -> bytes:
    """``record_hash`` of the record's encoding, computed on first use
    and kept on the record: ``fields`` never changes, so every tap and
    whole-record partition key of the record reads these bytes."""
    digest = record._digest
    if digest is None:
        digest = record._digest = record_hash(record.encoded())
    return digest


_MODULUS = 1 << (8 * DIGEST_SIZE)


@dataclass(frozen=True)
class Digest:
    """One digest emitted at a verification point.

    ``chunk_index`` orders the incremental digests of §6.4; for the
    default whole-stream digest it is always 0 and ``final`` is True.
    """

    value: bytes
    record_count: int
    chunk_index: int = 0
    final: bool = True

    def hex(self) -> str:
        return self.value.hex()

    def __repr__(self) -> str:
        kind = "final" if self.final else "chunk"
        return f"Digest({self.hex()[:12]}…, n={self.record_count}, {kind} #{self.chunk_index})"


class StreamingDigest:
    """Order-independent streaming digest over a record stream: it folds
    each record's :func:`record_digest`.

    Parameters
    ----------
    chunk_size:
        If positive, emit an intermediate :class:`Digest` every
        ``chunk_size`` records (paper §6.4's ``d``).  ``0`` disables
        chunking: only the final digest is produced.
    """

    def __init__(self, chunk_size: int = 0) -> None:
        if chunk_size < 0:
            raise ValueError("chunk_size must be >= 0")
        self.chunk_size = chunk_size
        #: AdHash accumulator: the sum of record hashes as an int, reduced
        #: modulo 2**256 (and turned into bytes) only in ``_snapshot``.
        self._acc = 0
        self._count = 0
        self._chunk_index = 0
        self._emitted: list[Digest] = []

    @property
    def record_count(self) -> int:
        return self._count

    def update(self, record: Record) -> Digest | None:
        """Fold one record in; return an intermediate digest when a chunk
        boundary is crossed, else ``None``."""
        emitted = self.update_all([record])
        return emitted[0] if emitted else None

    def update_all(self, records: Iterable[Record]) -> list[Digest]:
        """Fold many records; return all intermediate digests emitted.

        The records up to the next chunk boundary are one run, summed in
        one pass over their digests; a chunk digest is emitted wherever a
        run ends on a boundary, as folding one by one would."""
        if not isinstance(records, list):
            records = list(records)  # the runs are cut by its length
        chunk_size = self.chunk_size
        stream = iter(records)
        emitted = []
        left = len(records)
        while left:
            run = left
            if chunk_size:
                run = min(run, chunk_size - self._count % chunk_size)
            hashes = map(record_digest, islice(stream, run))
            self._acc += sum(map(int.from_bytes, hashes, repeat("big")))
            self._count += run
            left -= run
            if chunk_size and self._count % chunk_size == 0:
                digest = Digest(
                    value=self._snapshot(),
                    record_count=self._count,
                    chunk_index=self._chunk_index,
                    final=False,
                )
                self._chunk_index += 1
                self._emitted.append(digest)
                emitted.append(digest)
        return emitted

    def finalize(self) -> Digest:
        """Return the digest covering the entire stream seen so far."""
        digest = Digest(
            value=self._snapshot(),
            record_count=self._count,
            chunk_index=self._chunk_index,
            final=True,
        )
        self._emitted.append(digest)
        return digest

    def all_digests(self) -> list[Digest]:
        """Every digest emitted so far (chunks then final, in order)."""
        return list(self._emitted)

    def _snapshot(self) -> bytes:
        # Bind the accumulator to the record count so that e.g. a replica
        # that drops a record and one that duplicates another cannot
        # accidentally produce the same XOR accumulator value.
        acc = (self._acc % _MODULUS).to_bytes(DIGEST_SIZE, "big")
        return sha256(acc + self._count.to_bytes(8, "big"))


def digest_of(records: Iterable[Record], chunk_size: int = 0) -> Digest:
    """One-shot convenience: final digest of an iterable of records."""
    streaming = StreamingDigest(chunk_size=chunk_size)
    streaming.update_all(records)
    return streaming.finalize()


def corrupt_digest(digest: Digest) -> Digest:
    """Flip one bit — used by fault injection to model a commission fault
    at the digest level."""
    flipped = bytes([digest.value[0] ^ 0x01]) + digest.value[1:]
    return Digest(
        value=flipped,
        record_count=digest.record_count,
        chunk_index=digest.chunk_index,
        final=digest.final,
    )
