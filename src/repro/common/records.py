"""Record model shared by the storage, dataflow and MapReduce layers.

A :class:`Record` is an immutable, positionally-indexed tuple of fields,
like a Pig tuple.  Fields are restricted to a small set of scalar types
plus nested tuples/bags so every record has a canonical byte encoding —
the property the whole verification scheme rests on: two correct
replicas must produce *bit-identical* digests (paper §5.4).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

Scalar = int | float | str | bool | None
FieldValue = Any  # Scalar | tuple[...] | frozenset — validated at runtime.


class Record:
    """An immutable data tuple.

    >>> r = Record((1, "alice", 3.5))
    >>> r[1]
    'alice'
    >>> len(r)
    3
    """

    #: ``_size`` is the length of ``_encoded``, set in the same call
    #: that fills it and unset until then (see :func:`encoded_sizes`).
    __slots__ = ("fields", "_encoded", "_digest", "_size")

    def __init__(self, fields: Sequence[FieldValue]) -> None:
        self.fields: tuple[FieldValue, ...] = tuple(fields)
        self._encoded: bytes | None = None
        #: SHA-256 of the encoding, kept by ``hashing.record_digest``.
        self._digest: bytes | None = None

    def __getitem__(self, index: int) -> FieldValue:
        return self.fields[index]

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[FieldValue]:
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Record) and self.fields == other.fields

    def __hash__(self) -> int:
        # lint: allow FLOW003 process-local dict/set membership only; digests use record_hash (sha256), never this value
        return hash(self.fields)

    def __repr__(self) -> str:
        return f"Record{self.fields!r}"

    def project(self, indexes: Sequence[int]) -> "Record":
        """Return a new record keeping only ``indexes`` in order."""
        return Record(tuple(self.fields[i] for i in indexes))

    def append(self, *values: FieldValue) -> "Record":
        """Return a new record with ``values`` appended."""
        return Record(self.fields + values)

    def concat(self, other: "Record") -> "Record":
        """Return the positional concatenation of two records (join output)."""
        return Record(self.fields + other.fields)

    def encoded(self) -> bytes:
        """Canonical encoding of the whole record (newline-free,
        self-delimiting), computed on first use and kept: ``fields``
        never changes, so size, sort key and digest all read these bytes."""
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = encode_value(self.fields)
            self._size = len(encoded)
        return encoded

    def size_bytes(self) -> int:
        """Serialized size, used by the cost model: the kept length of
        :meth:`encoded`."""
        self.encoded()
        return self._size


_kept_size = attrgetter("_size")


def encoded_sizes(records: Sequence[Record]) -> list[int]:
    """The length of each record's encoding, in order: the one way a
    stream is sized.

    When every record has been encoded, its kept size is read in one
    C-level pass, with no Python frame per record.  An unset slot raises
    ``AttributeError`` there, and the whole list is then sized through
    :meth:`Record.encoded`, which encodes (and measures) the records that
    were never encoded."""
    try:
        return list(map(_kept_size, records))
    except AttributeError:
        return list(map(len, map(Record.encoded, records)))


def encode_tuple(members: Iterable[bytes]) -> bytes:
    """Encoding of the tuple whose members encode to ``members``."""
    inner = b"".join(members)
    return b"t%d:%b;" % (len(inner), inner)


def _encode_int(value: int) -> bytes:
    body = b"%d" % value
    return b"i%d:%b;" % (len(body), body)


def _encode_float(value: float) -> bytes:
    body = repr(value).encode()
    return b"f%d:%b;" % (len(body), body)


def _encode_str(value: str) -> bytes:
    body = value.encode("utf-8")
    return b"s%d:%b;" % (len(body), body)


def _encode_bag(value: Iterable[FieldValue]) -> bytes:
    # Bags are canonicalized by sorting their encodings so that replicas
    # that materialize a bag in different orders still digest equally.
    inner = b"".join(sorted(_encode_members(value)))
    return b"g%d:%b;" % (len(inner), inner)


class _EncoderTable(dict[type, Callable[[Any], bytes]]):
    """Exact type -> encoder.  A type with no entry of its own (a
    subclass) gets the entry of the first type on its MRO that has one:
    a namedtuple encodes as a tuple, a ``str`` subclass as a string.
    That walk is not stored, so the table holds the supported types only."""

    def __missing__(self, cls: type) -> Callable[[Any], bytes]:
        for base in cls.__mro__[1:]:
            encoder = self.get(base)
            if encoder is not None:
                return encoder
        raise TypeError(f"unsupported field type: {cls.__name__}")


def _encode_members(values: Iterable[FieldValue]) -> list[bytes]:
    """Each member's encoding, with one table lookup per member (a loop,
    not a comprehension, which before Python 3.12 costs a frame per call)."""
    encoders = _ENCODERS
    members = []
    for value in values:
        members.append(encoders[type(value)](value))
    return members


_ENCODERS = _EncoderTable(
    {
        type(None): lambda value: b"N;",
        bool: lambda value: b"b1;" if value else b"b0;",
        int: _encode_int,
        float: _encode_float,
        str: _encode_str,
        Record: Record.encoded,
        tuple: lambda value: encode_tuple(_encode_members(value)),
        list: _encode_bag,
        frozenset: _encode_bag,
    }
)


def encode_value(value: FieldValue) -> bytes:
    """Canonical, type-tagged byte encoding of a field value.

    The encoding is injective over the supported value domain: distinct
    values never encode to the same bytes, so digest equality implies
    data equality (up to hash collisions of SHA-256 itself).
    """
    return _ENCODERS[type(value)](value)


def encode_record(record: Record) -> bytes:
    """Canonical encoding of a whole record (see :meth:`Record.encoded`)."""
    return record.encoded()


def records_from_rows(rows: Iterable[Sequence[FieldValue]]) -> list[Record]:
    """Convenience: wrap an iterable of plain sequences into records."""
    return [Record(tuple(row)) for row in rows]
