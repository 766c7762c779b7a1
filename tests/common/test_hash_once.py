"""Each record hashed once (DESIGN.md §29).

A record's SHA-256 is computed at most once and kept on the record
(``hashing.record_digest``); every tap and whole-record partition key
reads it.  Its encoding goes through one exact-type table lookup per
field.  These tests compare both with the per-record forms they
replaced, and pin a hardened two-hop run with faulty nodes to the bytes
it produced before."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import hashing
from repro.common.hashing import StreamingDigest, record_digest, record_hash
from repro.common.records import _ENCODERS, Record, encode_value
from repro.core import journal as wal
from repro.core.controller import ClusterBFTController
from repro.dataflow.operators import VerifyOp
from repro.faults.behaviors import (
    CommissionBehavior,
    EquivocateBehavior,
    StorageCorruptionBehavior,
    tamper,
)
from repro.mapreduce.runtime import _key_placer, _tap, partition_for
from repro.workloads import TWO_HOP_ANALYSIS
from tests.common.test_record_kernels import CHUNK_SIZES, ReferenceFold, view
from tests.common.test_records import reference_encode, values
from tests.mapreduce.test_replica_sharing import EDGES_PATH, config, edges, plan_for


class Count(int):
    """An ``int`` subclass: its exact type is not ``int``."""


class Name(str):
    """A ``str`` subclass: its exact type is not ``str``."""


NAN = float("nan")
odd = st.sampled_from([True, False, 1, 0, 1.0, NAN, -0.0, 0.0, Count(7), Name("zoë")])
nested = st.recursive(
    st.one_of(odd, values),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(Record),
    ),
    max_leaves=6,
)
rows = st.lists(st.tuples(st.integers(-20, 20), st.text(max_size=2)), max_size=40)


class TestEncoderTable:
    @given(nested)
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_encoder(self, value):
        assert encode_value(value) == reference_encode(value)
        assert Record((value,)).encoded() == reference_encode((value,))

    def test_subclasses_encode_as_their_base_and_are_not_stored(self):
        class Fresh(int):
            pass

        before = dict(_ENCODERS)
        assert encode_value((Fresh(3), Name("a"))) == encode_value((3, "a"))
        assert dict(_ENCODERS) == before and Fresh not in _ENCODERS

    def test_unsupported_member_still_raises(self):
        for unsupported in (object(), b"raw", {1}, 1j):
            with pytest.raises(TypeError):
                encode_value((1, (2, unsupported)))


class TestMemoisedFold:
    @given(rows, st.sampled_from(CHUNK_SIZES), st.integers(0, 40), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_fold_equals_per_record_reference(self, data, chunk_size, warm, rng):
        """Some records already carry a digest and some objects appear
        twice; neither may change a digest or a chunk boundary."""
        records = [Record(row) for row in data]
        for record in records[:warm]:
            record_digest(record)
        records += rng.sample(records, min(len(records), 5))
        fold, reference = StreamingDigest(chunk_size), ReferenceFold(chunk_size)
        assert view(fold.update_all(records)) == reference.update_all(records)
        fold.finalize()
        reference.finalize()
        assert view(fold.all_digests()) == reference.emitted

    def test_taps_and_placer_hash_each_record_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hashing, "record_hash", lambda e: calls.append(e) or record_hash(e))
        records = [Record((i % 9, "x")) for i in range(30)]
        _tap(VerifyOp("vp", 7), records)
        place = _key_placer(4)
        for record in records:
            place(record.fields, record)
        _tap(VerifyOp("vp", 0), records)
        assert calls == [record.encoded() for record in sorted(records, key=Record.encoded)]
        assert all(r._digest == hashlib.sha256(r.encoded()).digest() for r in records)


class TestPartitionRule:
    @given(rows, st.sampled_from([1, 2, 3, 7, 64]))
    @settings(max_examples=50, deadline=None)
    def test_whole_record_key_partitions_like_partition_for(self, data, reducers):
        place = _key_placer(reducers)
        for record in map(Record, data):
            part, key_as_tuple, key_bytes = place(record.fields, record)
            assert part == partition_for(record.fields, reducers)
            assert key_as_tuple == record.encoded() and key_bytes == len(key_as_tuple)

    def test_a_copy_of_the_fields_partitions_alike(self):
        record = Record((5, "k"))
        whole = _key_placer(4)(record.fields, record)
        copied = _key_placer(4)(tuple(record.fields), Record((0,)))
        assert whole == copied


class TestTamperedRecords:
    def test_a_tampered_record_gets_its_own_digest(self):
        honest = Record((1, "a", 2.5, None, True))
        kept = record_digest(honest)
        bad = tamper(honest)
        assert bad is not honest and bad._digest is None
        assert record_digest(bad) == record_hash(reference_encode(bad.fields)) != kept
        assert record_digest(honest) == kept


class TestTapOrder:
    def test_unchunked_tap_is_the_same_in_every_order(self):
        records = [Record((i % 3, "v" * i)) for i in range(6)]
        results = {
            (tuple(d.value for d in tap.digests), tap.record_count, tap.bytes_hashed)
            for tap in (
                _tap(VerifyOp("vp", 0), list(order))
                for order in itertools.permutations(records)
            )
        }
        assert len(results) == 1

    @given(rows, st.randoms(), st.sampled_from(CHUNK_SIZES))
    @settings(max_examples=50, deadline=None)
    def test_any_tap_matches_the_sorted_reference(self, data, rng, chunk_size):
        records = [Record(row) for row in data]
        shuffled = list(records)
        rng.shuffle(shuffled)
        reference = ReferenceFold(chunk_size)
        reference.update_all(sorted(records, key=Record.encoded))
        reference.finalize()
        tap = _tap(VerifyOp("vp", chunk_size), shuffled)
        got = view(tap.digests)
        if chunk_size:
            assert got == reference.emitted
        else:  # one digest, the sum's: no chunk depends on order
            assert got == reference.emitted[-1:]
        assert tap.bytes_hashed == sum(len(reference_encode(r.fields)) for r in records)


#: fault -> (assured, attempts, verdicts as (sid, status, winners,
#: faulty replicas), first 16 hex digits of the SHA-256 over the output
#: paths and encodings, and of the WAL file's SHA-256), computed before
#: records kept their digests.
FAULT_PINS = {
    "commission": (
        True, 1,
        [("script0001.a0.j0", "verified", [0, 1], [3]),
         ("script0001.a0.j1", "verified", [0, 1], [3])],
        "b320eebb25224af3", "6871b4927037dcfb",
    ),
    "equivocate": (
        True, 1,
        [("script0001.a0.j0", "verified", [0, 1], []),
         ("script0001.a0.j1", "verified", [0, 1], [3])],
        "b320eebb25224af3", "4c3ffa9d36615d3e",
    ),
    "storage-rot": (
        True, 1,
        [("script0001.a0.j0", "verified", [0, 1], [3]),
         ("script0001.a0.j1", "verified", [0, 1], [3])],
        "b320eebb25224af3", "6871b4927037dcfb",
    ),
}
FAULTS = {
    "commission": lambda: CommissionBehavior(1.0),
    "storage-rot": StorageCorruptionBehavior,
    "equivocate": EquivocateBehavior,
}


def hardened_twohop(behavior, tmp_path):
    cfg = config(digest_chunk_records=50, checkpoints=True)
    records = edges(TWO_HOP_ANALYSIS)
    wal_path = tmp_path / "run.wal"
    journal = wal.Journal.create(
        str(wal_path), cfg, TWO_HOP_ANALYSIS, {EDGES_PATH: records}, block_bytes=4096
    )
    controller = ClusterBFTController(
        cfg, fault_plan=plan_for(behavior), block_bytes=4096, journal=journal
    )
    controller.load_input(EDGES_PATH, records)
    result = controller.run_assured(TWO_HOP_ANALYSIS)
    journal.close()
    outputs = hashlib.sha256()
    for path in sorted(result.outputs):
        outputs.update(path.encode())
        for record in result.outputs[path]:
            outputs.update(record.encoded())
    verdicts = [
        (o.sid, o.status, sorted(o.winners), sorted(f.replica for f in o.faults))
        for o in result.outcomes
    ]
    return (
        result.assured,
        result.attempts,
        verdicts,
        outputs.hexdigest()[:16],
        hashlib.sha256(wal_path.read_bytes()).hexdigest()[:16],
    )


class TestFaultyRunsPinned:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_verdicts_outputs_and_wal_as_before(self, fault, tmp_path):
        observed = hardened_twohop(FAULTS[fault](), tmp_path)
        assert any(faulty for *_, faulty in observed[2])  # the fault bit
        assert observed == FAULT_PINS[fault]

