"""Schemas for dataflow operators.

A :class:`Schema` names (and loosely types) the fields of the records
flowing out of an operator, mirroring Pig's ``AS (user:int, ...)``
clauses.  Field resolution supports plain names, positional ``$k``
references, and Pig's ``alias::name`` disambiguation for join outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SchemaError

# Loose type tags, Pig-style.  ``BAG`` holds a canonically-sorted tuple of
# Records (the output of GROUP); ``ANY`` disables checking for that field.
INT = "int"
LONG = "long"
FLOAT = "float"
DOUBLE = "double"
CHARARRAY = "chararray"
BOOLEAN = "boolean"
BAG = "bag"
TUPLE = "tuple"
ANY = "any"

_NUMERIC = {INT, LONG, FLOAT, DOUBLE}
VALID_TYPES = _NUMERIC | {CHARARRAY, BOOLEAN, BAG, TUPLE, ANY}


def is_numeric(type_tag: str) -> bool:
    return type_tag in _NUMERIC


@dataclass(frozen=True)
class Field:
    """A named, typed schema slot.

    ``inner`` carries the element schema of a BAG field (set by GROUP),
    letting FOREACH expressions like ``B.temp`` resolve inside the bag.
    """

    name: str
    type: str = ANY
    inner: "Schema | None" = None

    def __post_init__(self) -> None:
        if self.type not in VALID_TYPES:
            raise SchemaError(f"unknown field type: {self.type!r}")
        if self.inner is not None and self.type != BAG:
            raise SchemaError("inner schema only valid on BAG fields")

    def qualified(self, alias: str) -> "Field":
        """Return this field renamed to ``alias::name`` (join outputs)."""
        if "::" in self.name:
            return self
        return Field(name=f"{alias}::{self.name}", type=self.type, inner=self.inner)


class Schema:
    """An ordered collection of :class:`Field`.

    >>> s = Schema.of(("user", INT), ("follower", INT))
    >>> s.index_of("follower")
    1
    >>> s.index_of("$0")
    0
    """

    __slots__ = ("fields", "_resolved")

    def __init__(self, fields: list[Field] | tuple[Field, ...]) -> None:
        self.fields: tuple[Field, ...] = tuple(fields)
        #: ref -> index for every ref resolved so far (``fields`` never
        #: changes, so neither does a resolution; failures are not kept).
        self._resolved: dict[str, int] = {}

    @classmethod
    def of(cls, *specs: tuple[str, str] | str) -> "Schema":
        """Build a schema from ``(name, type)`` pairs or bare names."""
        fields = []
        for spec in specs:
            if isinstance(spec, str):
                fields.append(Field(spec))
            else:
                name, type_tag = spec
                fields.append(Field(name, type_tag))
        return cls(fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __hash__(self) -> int:
        # lint: allow FLOW003 process-local dict/set membership only; schemas are compared structurally, never digested by hash()
        return hash(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.type}" for f in self.fields)
        return f"Schema({inner})"

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def describe(self) -> str:
        """Compact Pig-style rendering for diagnostics: ``(user:int, …)``."""
        return "(" + ", ".join(f"{f.name}:{f.type}" for f in self.fields) + ")"

    def field(self, index: int) -> Field:
        return self.fields[index]

    def index_of(self, ref: str) -> int:
        """Resolve a field reference to a positional index.

        Accepts ``$k`` positional refs, exact names, unqualified matches
        against ``alias::name`` fields (when unambiguous), and qualified
        ``alias::name`` refs.
        """
        index = self._resolved.get(ref)
        if index is None:
            index = self._resolved[ref] = self._resolve(ref)
        return index

    def _resolve(self, ref: str) -> int:
        if ref.startswith("$"):
            try:
                index = int(ref[1:])
            except ValueError:
                raise SchemaError(f"bad positional reference: {ref!r}") from None
            if not 0 <= index < len(self.fields):
                raise SchemaError(
                    f"positional reference {ref} out of range for {self!r}"
                )
            return index
        # Exact match first (must be unique).
        exact = [i for i, field in enumerate(self.fields) if field.name == ref]
        if len(exact) == 1:
            return exact[0]
        if len(exact) > 1:
            raise SchemaError(
                f"ambiguous field reference {ref!r} in {self!r}; qualify it"
            )
        # Unqualified match against alias::name.
        matches = [
            i for i, field in enumerate(self.fields)
            if field.name.split("::")[-1] == ref
        ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise SchemaError(
                f"ambiguous field reference {ref!r} in {self!r}; qualify it"
            )
        raise SchemaError(f"no field {ref!r} in {self!r}")

    def type_of(self, ref: str) -> str:
        return self.fields[self.index_of(ref)].type

    def has_field(self, ref: str) -> bool:
        try:
            self.index_of(ref)
            return True
        except SchemaError:
            return False

    def qualify(self, alias: str) -> "Schema":
        """Qualify every field as ``alias::name`` (used for join inputs)."""
        return Schema([f.qualified(alias) for f in self.fields])

    def concat(self, other: "Schema") -> "Schema":
        return Schema(self.fields + other.fields)

    def project(self, indexes: list[int]) -> "Schema":
        return Schema([self.fields[i] for i in indexes])

    def rename(self, names: list[str]) -> "Schema":
        """Return a copy with new names (same arity and types)."""
        if len(names) != len(self.fields):
            raise SchemaError(
                f"rename arity mismatch: {len(names)} names for {len(self.fields)} fields"
            )
        return Schema(
            [
                Field(name, field.type, field.inner)
                for name, field in zip(names, self.fields)
            ]
        )
