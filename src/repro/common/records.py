"""Record model shared by the storage, dataflow and MapReduce layers.

A :class:`Record` is an immutable, positionally-indexed tuple of fields,
like a Pig tuple.  Fields are restricted to a small set of scalar types
plus nested tuples/bags so every record has a canonical byte encoding —
the property the whole verification scheme rests on: two correct
replicas must produce *bit-identical* digests (paper §5.4).
"""

from __future__ import annotations

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

    __slots__ = ("fields", "_encoded")

    def __init__(self, fields: Sequence[FieldValue]) -> None:
        self.fields: tuple[FieldValue, ...] = tuple(fields)
        self._encoded: bytes | None = None

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
        return encoded

    def size_bytes(self) -> int:
        """Approximate serialized size, used by the cost model."""
        return len(self.encoded())


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
    inner = b"".join(sorted(map(encode_value, value)))
    return b"g%d:%b;" % (len(inner), inner)


#: Exact type -> encoder; a subclass uses the first entry on its MRO.
_ENCODERS: dict[type, Callable[[Any], bytes]] = {
    type(None): lambda value: b"N;",
    bool: lambda value: b"b1;" if value else b"b0;",
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    Record: Record.encoded,
    tuple: lambda value: encode_tuple(map(encode_value, value)),
    list: _encode_bag,
    frozenset: _encode_bag,
}


def encode_value(value: FieldValue) -> bytes:
    """Canonical, type-tagged byte encoding of a field value.

    The encoding is injective over the supported value domain: distinct
    values never encode to the same bytes, so digest equality implies
    data equality (up to hash collisions of SHA-256 itself).
    """
    for base in type(value).__mro__:
        encoder = _ENCODERS.get(base)
        if encoder is not None:
            return encoder(value)
    raise TypeError(f"unsupported field type: {type(value).__name__}")


def encode_record(record: Record) -> bytes:
    """Canonical encoding of a whole record (see :meth:`Record.encoded`)."""
    return record.encoded()


def records_from_rows(rows: Iterable[Sequence[FieldValue]]) -> list[Record]:
    """Convenience: wrap an iterable of plain sequences into records."""
    return [Record(tuple(row)) for row in rows]
