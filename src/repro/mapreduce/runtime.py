"""Task execution logic: the pure data-path of map and reduce tasks.

The engine (``repro.mapreduce.engine``) decides *when* and *where* a
task runs; this module decides *what* it computes.  Everything here is
deterministic given its inputs, which is what makes replica digests
comparable:

* reduce keys are grouped and emitted in canonical key order;
* verification taps sort their observed stream canonically before
  chunked digesting, so chunk boundaries agree across replicas;
* job outputs are assembled in task-index order by the engine, so
  intermediate files are byte-identical across correct replicas and
  block/split structure matches.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.common.hashing import Digest, StreamingDigest, sha256
from repro.common.records import Record, encode_tuple, encode_value
from repro.compiler.jobspec import JobSpec, PipelineOp
from repro.dataflow.operators import VerifyOp
from repro.faults.behaviors import NodeBehavior

#: A shuffled record: (reduce key, input tag, record, the key's encoding
#: as a tuple, the size of the key's own encoding).  The map side encodes
#: the key; the reduce side reads both forms from the entry.
KeyedRecord = tuple[object, int, Record, bytes, int]

#: Key types whose equal values always encode alike, so a task may
#: memoise them by value (``1 == 1.0 == True`` and ``0.0 == -0.0`` do not).
_MEMO_TYPES = (int, str)


def _encode_key(key: object) -> tuple[bytes, int]:
    """Encode a reduce key once, for both of its uses.

    Returns the key's encoding *as a tuple* — what partitioning and key
    order go by, so a scalar key and its 1-tuple agree — and the size of
    the key's own encoding, which is what the shuffle is charged.
    """
    encoded = encode_value(key)
    if isinstance(key, tuple):
        return encoded, len(encoded)
    return encode_tuple((encoded,)), len(encoded)


def _partition_of(key_as_tuple: bytes, num_reducers: int) -> int:
    return int.from_bytes(sha256(key_as_tuple)[:4], "big") % num_reducers


def partition_for(key: object, num_reducers: int) -> int:
    """Deterministic hash partitioner (stable across processes/replicas)."""
    return _partition_of(_encode_key(key)[0], num_reducers)


def _key_placer(
    num_reducers: int,
) -> Callable[[object, Record], tuple[int, bytes, int]]:
    """One map task's ``place(key, record) -> (partition, key_as_tuple,
    key_bytes)``, encoding each key once and hashing each partition once.

    A whole-record key (``key is record.fields``) reads the record's cached
    encoding.  Exact ``int`` / ``str`` keys are memoised by value; every
    other key is encoded per record, so lookalikes keep their own bytes.
    Partitions are memoised by the key's bytes.
    """
    by_value: dict = {}
    by_bytes: dict[bytes, int] = {}

    def place(key: object, record: Record) -> tuple[int, bytes, int]:
        memoise = type(key) in _MEMO_TYPES
        placed = by_value.get(key) if memoise else None
        if placed is not None:
            return placed
        if key is record.fields:
            key_as_tuple = record.encoded()
            key_bytes = len(key_as_tuple)
        else:
            key_as_tuple, key_bytes = _encode_key(key)
        part = by_bytes.get(key_as_tuple)
        if part is None:
            part = by_bytes[key_as_tuple] = _partition_of(key_as_tuple, num_reducers)
        placed = part, key_as_tuple, key_bytes
        if memoise:
            by_value[key] = placed
        return placed

    return place


@dataclass
class TapResult:
    """Digests observed at one verification point within one task."""

    vp_id: str
    digests: list[Digest]
    record_count: int
    bytes_hashed: int


def _tap(point: VerifyOp, records: list[Record]) -> TapResult:
    """Digest the records passing a VerifyOp inside a task."""
    # Sort canonically so chunk boundaries agree across replicas.
    ordered = sorted(records, key=Record.encoded)
    streaming = StreamingDigest(chunk_size=point.chunk_records)
    streaming.update_all(ordered)
    streaming.finalize()
    return TapResult(
        vp_id=point.vp_id,
        digests=streaming.all_digests(),
        record_count=len(ordered),
        bytes_hashed=sum(r.size_bytes() for r in ordered),
    )


def run_pipeline(
    records: list[Record], pipeline: list[PipelineOp]
) -> tuple[list[Record], list[TapResult]]:
    """Stream ``records`` through a compiled pipeline one bound stage at a
    time, tapping VerifyOps (which are identity on the stream)."""
    current = list(records)
    taps = []
    for stage in pipeline:
        if isinstance(stage.op, VerifyOp):
            taps.append(_tap(stage.op, current))
        else:
            current = stage.run(current)
    return current, taps


@dataclass
class MapTaskOutput:
    """Result of one map task."""

    output_records: list[Record] = field(default_factory=list)  # map-only jobs
    partitions: dict[int, list[KeyedRecord]] = field(default_factory=dict)
    taps: list[TapResult] = field(default_factory=list)
    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    omitted: bool = False


def execute_map_task(
    spec: JobSpec,
    branch_index: int,
    records: list[Record],
    bytes_in: int,
    behavior: NodeBehavior,
    rng: random.Random,
) -> MapTaskOutput:
    """Run one map task over one input block."""
    branch = spec.branches[branch_index]
    records = behavior.corrupt_records(records, rng)
    out_records, taps = run_pipeline(records, branch.pipeline)

    result = MapTaskOutput(
        taps=taps,
        records_in=len(records),
        records_out=len(out_records),
        bytes_in=bytes_in,
    )
    if spec.blocking is None:
        # Equivocation point: taps above digested the honest stream; a
        # faulty node may still persist something else entirely.
        out_records = behavior.corrupt_stored_output(out_records, rng)
        result.output_records = out_records
        result.bytes_out = sum(r.size_bytes() for r in out_records)
        return result

    key_of = branch.key
    if spec.combiner is not None:
        # Map-side combining: one partial record per key instead of the
        # whole bag (COUNT/SUM/MIN/MAX are order-insensitive, so no sort
        # is needed for replica determinism).
        per_key: dict = defaultdict(list)
        for record in out_records:
            per_key[key_of(record)].append(record)
        keyed = [
            (key, spec.combiner.initial_partial(group)) for key, group in per_key.items()
        ]
        result.records_out = len(keyed)
    else:
        keyed = [(key_of(record), record) for record in out_records]
    place = _key_placer(spec.num_reducers)
    partitions: dict[int, list[KeyedRecord]] = defaultdict(list)
    bytes_out = 0
    for key, record in keyed:
        part, key_as_tuple, key_bytes = place(key, record)
        partitions[part].append((key, branch.tag, record, key_as_tuple, key_bytes))
        bytes_out += record.size_bytes() + key_bytes
    result.partitions = dict(partitions)
    result.bytes_out = bytes_out
    return result


@dataclass
class ReduceTaskOutput:
    """Result of one reduce task."""

    output_records: list[Record] = field(default_factory=list)
    taps: list[TapResult] = field(default_factory=list)
    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    omitted: bool = False


def execute_reduce_task(
    spec: JobSpec,
    keyed_records: list[KeyedRecord],
    behavior: NodeBehavior,
    rng: random.Random,
) -> ReduceTaskOutput:
    """Run one reduce task over its shuffled partition."""
    # A commission-faulty reducer computes on tampered values.
    corrupted = behavior.corrupt_records([entry[2] for entry in keyed_records], rng)
    bytes_in = 0
    # Key order goes by a group's first-seen key, the one ``groups``
    # keeps; an equal key of another type (1, 1.0, True) joins that group
    # but is charged its own size.  Both forms come from the map side.
    sort_form: dict = {}
    groups: dict = defaultdict(list)
    for (key, tag, record, key_as_tuple, key_bytes), seen in zip(
        keyed_records, corrupted
    ):
        sort_form.setdefault(key, key_as_tuple)
        bytes_in += record.size_bytes() + key_bytes
        groups[key].append((tag, seen))

    reduced: list[Record] = []
    ordered_keys = sorted(groups, key=sort_form.__getitem__)
    if spec.combiner is not None:
        # Merge map-side partials and produce the FOREACH's output
        # directly; the remaining pipeline (after that FOREACH) applies
        # as usual.
        for key in ordered_keys:
            partials = [record for _, record in groups[key]]
            merged = spec.combiner.merge(partials)
            reduced.append(spec.combiner.finalize(key, merged))
        pipeline = spec.reduce_pipeline[1:]
    else:
        for key in ordered_keys:
            reduced.extend(
                spec.blocking.reduce(key, groups[key], spec.blocking_input_schemas)
            )
        pipeline = spec.reduce_pipeline

    out_records, taps = run_pipeline(reduced, pipeline)
    if spec.fused_limit is not None:
        out_records = out_records[: spec.fused_limit]
    if spec.post_limit_pipeline:
        out_records, post_taps = run_pipeline(out_records, spec.post_limit_pipeline)
        taps = taps + post_taps
    # Equivocation point: digests cover the honest stream; the stored
    # output may still be tampered (caught only by commit-time checks).
    out_records = behavior.corrupt_stored_output(out_records, rng)

    return ReduceTaskOutput(
        output_records=out_records,
        taps=taps,
        records_in=len(keyed_records),
        records_out=len(out_records),
        bytes_in=bytes_in,
        bytes_out=sum(r.size_bytes() for r in out_records),
    )
