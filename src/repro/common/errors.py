"""Exception hierarchy for the ClusterBFT reproduction.

Every package raises subclasses of :class:`ReproError` so callers can
catch library failures without masking programming errors (``TypeError``
and friends propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration."""


class RulesError(ConfigError, ValueError):
    """A malformed alert-rules document.  Also a ``ValueError``, which
    rule parsing raised before it had a type of its own."""


class TraceError(ReproError, ValueError):
    """A telemetry trace that is corrupt, not merely cut off.  Also a
    ``ValueError``, which the trace readers raised before it had a type
    of its own."""


class StorageError(ReproError):
    """Base class for trusted-storage errors."""


class FileNotFound(StorageError):
    """The named file does not exist in the DFS namespace."""


class FileAlreadyExists(StorageError):
    """Attempt to create a file that already exists (append-only DFS)."""


class DataflowError(ReproError):
    """Base class for logical-plan construction errors."""


class SchemaError(DataflowError):
    """A field reference does not resolve against the operator's schema."""


class PlanError(DataflowError):
    """The logical plan is structurally invalid (cycle, dangling edge...)."""


class ParseError(DataflowError):
    """The Pig-Latin-subset script failed to parse."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class CompileError(ReproError):
    """Logical plan could not be compiled to MapReduce jobs."""


class MapReduceError(ReproError):
    """Base class for MapReduce engine errors."""


class VerificationError(ReproError):
    """Digest comparison failed to find f+1 matching digests."""


class VerificationExhausted(VerificationError):
    """Rerun escalation ran out of ``max_reruns`` attempts without
    assuring the run.  Carries the best-effort :class:`ScriptResult` as
    ``result`` so callers can still inspect outputs and audit state."""

    def __init__(self, script_id: str, attempts: int, unsettled: list[str]):
        pending = ", ".join(unsettled) if unsettled else "none"
        super().__init__(
            f"{script_id}: rerun escalation exhausted after {attempts} "
            f"attempt(s) without assurance (unsettled: {pending})"
        )
        self.script_id = script_id
        self.attempts = attempts
        self.unsettled = list(unsettled)
        self.result = None  # set by the controller before raising


class FaultInjectionError(ReproError):
    """Invalid fault-injection plan."""


class SimulationError(ReproError):
    """Discrete-event simulation error (e.g. event scheduled in the past)."""
