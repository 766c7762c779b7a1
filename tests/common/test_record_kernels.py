"""One-pass record kernels: the chunked digest fold and the WAL record
codec each take a whole stream in one pass, the fold over the records'
kept digests.  The per-record forms they replaced are kept here as
references, and every digest, chunk boundary and serialised byte must
equal theirs."""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import StreamingDigest
from repro.common.records import Record
from repro.core.journal import record_to_json, records_from_json, records_to_json, value_to_json
from tests.common.test_records import values

CHUNK_SIZES = (0, 1, 7, 500)
rows = st.lists(st.tuples(st.integers(-50, 50), st.text(max_size=3)), max_size=60)


class ReferenceFold:
    """The fold before runs were summed in one pass: one record, one
    SHA-256, one addition, one boundary check."""

    def __init__(self, chunk_size):
        self.chunk_size = chunk_size
        self.acc = self.count = self.chunk_index = 0
        self.emitted = []

    def snapshot(self):
        acc = (self.acc % (1 << 256)).to_bytes(32, "big")
        return hashlib.sha256(acc + self.count.to_bytes(8, "big")).digest()

    def update_all(self, records):
        out = []
        for record in records:
            self.acc += int.from_bytes(hashlib.sha256(record.encoded()).digest(), "big")
            self.count += 1
            if self.chunk_size and self.count % self.chunk_size == 0:
                out.append((self.snapshot(), self.count, self.chunk_index, False))
                self.chunk_index += 1
        self.emitted += out
        return out

    def finalize(self):
        self.emitted.append((self.snapshot(), self.count, self.chunk_index, True))


def view(digests):
    return [(d.value, d.record_count, d.chunk_index, d.final) for d in digests]


def assert_folds_alike(records, cuts, chunk_size, generator_call=None):
    """Feed ``records`` cut at ``cuts`` to both folds, call by call; the
    call numbered ``generator_call`` passes the fold a generator."""
    fold, reference = StreamingDigest(chunk_size), ReferenceFold(chunk_size)
    bounds = [0, *sorted(cuts), len(records)]
    for call, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        piece = records[start:stop]
        fed = iter(piece) if call == generator_call else piece
        assert view(fold.update_all(fed)) == reference.update_all(piece)
        assert fold.record_count == reference.count
    fold.finalize()
    reference.finalize()
    assert view(fold.all_digests()) == reference.emitted


class TestDigestFold:
    @given(
        rows,
        st.sampled_from(CHUNK_SIZES),
        st.lists(st.integers(0, 60), max_size=6),
        st.none() | st.integers(0, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_streams_fold_like_the_per_record_reference(
        self, data, chunk_size, cuts, generator_call
    ):
        records = [Record(row) for row in data]
        cuts = [min(cut, len(records)) for cut in cuts]
        assert_folds_alike(records, cuts, chunk_size, generator_call)

    def test_long_stream_crosses_chunk_boundaries_mid_call(self):
        records = [Record((i % 97, "x" * (i % 5))) for i in range(1234)]
        for chunk_size in CHUNK_SIZES:
            # Calls that start mid-chunk, end on a boundary, span two
            # boundaries, and one that is empty.
            assert_folds_alike(records, [3, 499, 500, 500, 1001, 1233], chunk_size, 2)

    def test_update_is_a_one_record_fold(self):
        fold, reference = StreamingDigest(7), ReferenceFold(7)
        for i in range(20):
            emitted = fold.update(Record((i,)))
            expected = reference.update_all([Record((i,))])
            assert view([emitted] if emitted else []) == expected
        assert fold.record_count == 20


def reference_record_to_json(record):
    """The codec before plain records were copied whole: every field
    through ``value_to_json``."""
    return [value_to_json(v) for v in record.fields]


class Name(str):
    """A ``str`` subclass: its exact type is not ``str``."""


NAN = float("nan")
plain = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([NAN, -0.0, 0.0, 1, 1.0, True, 0, False]),
    st.text(max_size=5),
)
fields = st.one_of(plain, st.text(max_size=5).map(Name), values)


def assert_codec_alike(records):
    encoded = records_to_json(records)
    reference = [reference_record_to_json(record) for record in records]
    assert json.dumps(encoded, sort_keys=True) == json.dumps(reference, sort_keys=True)
    for row, expected in zip(encoded, reference):
        assert [type(v) for v in row] == [type(v) for v in expected]
    return encoded


class TestRecordCodec:
    @given(st.lists(st.lists(fields, max_size=5).map(Record), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_records_serialise_like_the_per_field_reference(self, records):
        assert_codec_alike(records)

    @given(st.lists(st.lists(plain, max_size=5).map(Record), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_plain_records_round_trip(self, records):
        encoded = assert_codec_alike(records)
        decoded = records_from_json(json.loads(json.dumps(encoded)))
        assert [r.encoded() for r in decoded] == [r.encoded() for r in records]

    @given(
        st.lists(st.lists(plain, max_size=4).map(Record), max_size=8),
        st.lists(st.lists(fields, min_size=1, max_size=4).map(Record), min_size=1, max_size=3),
        st.lists(st.integers(0, 8), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_mixed_batches_serialise_like_the_per_field_reference(
        self, plain_records, others, positions
    ):
        """A batch whose type check fails as a whole still serialises
        every plain record as a copy and every other record field by
        field, in order."""
        batch = list(plain_records)
        for record, position in zip(others, positions):
            batch.insert(min(position, len(batch)), record)
        assert_codec_alike(batch)

    def test_one_odd_field_sends_the_batch_record_by_record(self):
        batch = [Record((1, "a")), Record((Name("b"), (2, 2.0))), Record((True, None))]
        assert records_to_json(batch) == [
            [1, "a"], ["b", {"t": [2, 2.0]}], [True, None]
        ]
        assert type(records_to_json(batch)[1][0]) is Name
        assert assert_codec_alike(batch)

    def test_lookalikes_keep_their_types(self):
        record = Record((True, 1, 1.0, 0.0, -0.0, NAN, None, "1"))
        assert record_to_json(record) == reference_record_to_json(record)
        assert [type(v) for v in record_to_json(record)] == [
            bool, int, float, float, float, float, type(None), str
        ]
        assert json.dumps(record_to_json(record)) == (
            '[true, 1, 1.0, 0.0, -0.0, NaN, null, "1"]'
        )

    def test_containers_and_subclasses_take_the_per_field_path(self):
        record = Record((Name("a"), (1, True), Record((2.0,)), [3, 1], frozenset({"z"})))
        assert record_to_json(record) == [
            "a", {"t": [1, True]}, {"r": [2.0]}, {"b": [1, 3]}, {"b": ["z"]}
        ]
        assert type(record_to_json(record)[0]) is Name
