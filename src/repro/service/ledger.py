"""Multiplexed service ledger: every run's journal, one durable file.

The single-run :class:`~repro.core.journal.Journal` is a one-WAL-one-
run contract.  The service multiplexes many concurrent runs, so their
journal streams interleave into one append-only ledger file — same
JSONL/sorted-keys layout, same value codecs, one *global* sequence
number, each run-scoped record tagged with its run id::

    {"kind": "header", "schema": "repro.ledger/v1", "seq": 0,
     "trace": "...", "trace_sha256": "..."}
    {"kind": "admit",  "seq": 1, "run": "script0001", "tenant": "alice"}
    {"kind": "run_start", "seq": 2, "run": "script0001", ...}
    {"kind": "digest", "seq": 7, "run": "script0002", ...}   # interleaved
    ...
    {"kind": "service_end", "seq": N, ...}

Durability policy mirrors the journal: ``header``, ``commit``,
``attempt_end``, ``run_end`` and ``service_end`` records are fsync'd
before the writer returns; marker records are flushed only.

Crash-resume is **deterministic replay with prefix verification**,
not state reconstruction: the header embeds the full trace (and seed),
the whole service is a pure function of it, so a resume re-executes
the trace from t=0 with the ledger in *verify* mode — every record the
replay would append is byte-compared against the durable prefix (after
truncating the torn tail, whose byte count is surfaced, never silently
dropped), and appending resumes past the prefix.  The resumed ledger
is byte-identical to the uninterrupted run's by construction — and the
verification is strictly stronger than trusting the prefix.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import IO, Callable

from repro.common.errors import ReproError
from repro.core import journal as wal

SCHEMA_VERSION = "repro.ledger/v1"

HEADER = wal.HEADER  # the file format's, checked by ``wal.read_wal``
ADMIT = "admit"
REJECT = "reject"
ENQUEUE = "enqueue"
DEQUEUE = "dequeue"
SERVICE_END = "service_end"

#: Records recovery depends on are forced to stable storage (the
#: journal's sync kinds plus the service-level terminal record).
SYNC_KINDS = frozenset(wal.SYNC_KINDS) | {HEADER, SERVICE_END}

#: Service-level record kinds covered by *uniform* replay: ledger
#: resume is deterministic re-execution with byte-prefix verification
#: (see module docstring), so no per-kind dispatch exists — every
#: replayed append, whatever its kind, is byte-compared against the
#: durable prefix in :meth:`MultiplexedLedger.append`.  The WAL
#: coverage lint (WAL001) reads this declaration; run-scoped kinds
#: multiplexed from the journal surface are accounted for on that
#: surface instead.
REPLAY_UNIFORM = frozenset({ADMIT, REJECT, ENQUEUE, DEQUEUE, SERVICE_END})


class LedgerError(ReproError):
    """Raised for ledger misuse or replay/prefix divergence."""


def _trace_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class LedgerStream:
    """Journal-compatible adapter for one run's slice of the ledger.

    The controller's assured-step generator writes through the journal
    interface (``append`` / ``close``); a stream forwards each append to
    the shared ledger tagged with its run id.  Closing a stream ends the
    run's slice — the ledger file stays open for the other tenants.
    """

    __slots__ = ("ledger", "run_id", "closed")

    def __init__(self, ledger: "MultiplexedLedger", run_id: str) -> None:
        self.ledger = ledger
        self.run_id = run_id
        self.closed = False

    def append(self, kind: str, **fields) -> dict:
        if self.closed:
            raise LedgerError(
                f"stream for {self.run_id} is closed — one stream, one run"
            )
        return self.ledger.append(kind, run=self.run_id, **fields)

    def close(self) -> None:
        self.closed = True


# Its own ``create`` / ``append`` / ``close`` beside ``Journal``'s, for
# the reason given at :class:`repro.core.journal.Journal`: the host-clock
# benchmark patches both sets by name.  The file format under them is
# shared (``wal.read_wal`` and friends).
class MultiplexedLedger:
    """Append-only, run-id-tagged, durable service ledger."""

    def __init__(
        self,
        path: str,
        handle: IO[str] | None,
        next_seq: int,
        crash_hook: Callable[[dict], None] | None = None,
        expected_lines: list[str] | None = None,
    ) -> None:
        self.path = path
        self._handle = handle
        self._seq = next_seq
        self.crash_hook = crash_hook
        self._tracer = None
        #: Durable prefix a resume must reproduce byte-for-byte before
        #: any genuinely new record is appended (None = fresh ledger).
        self._expected_lines = expected_lines
        #: Bytes of torn tail :meth:`resume` truncated (crash damage —
        #: surfaced by the service in its audit log, never dropped
        #: silently).
        self.torn_bytes_truncated = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        trace_text: str,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> "MultiplexedLedger":
        """Start a fresh ledger: write (and fsync) the header.

        Refuses an existing path — one ledger describes one service
        execution; resume it with ``repro serve --resume`` instead.
        """
        try:
            handle = open(path, "x")
        except FileExistsError:
            raise LedgerError(
                f"ledger {path} already exists — resume it with "
                "`repro serve --resume` or pass a fresh path"
            )
        ledger = cls(path, handle, next_seq=0, crash_hook=crash_hook)
        ledger.append(
            HEADER,
            schema=SCHEMA_VERSION,
            trace=trace_text,
            trace_sha256=_trace_sha256(trace_text),
        )
        wal.fsync_directory(os.path.dirname(os.path.abspath(path)))
        return ledger

    @classmethod
    def resume(
        cls,
        path: str,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> "MultiplexedLedger":
        """Reopen a crashed service's ledger in verify-then-append mode.

        Truncates the torn tail (recording how many bytes were cut),
        reads what survived the way :func:`read_ledger` does — so
        anything but a well-formed ledger is a :class:`LedgerError` —
        then arms the ledger with the surviving lines: replayed appends
        are verified against them in order, and writing resumes only
        past the durable prefix.
        """
        torn_bytes = wal.truncate_torn_tail(path, LedgerError, "ledger")
        header = read_ledger(path)[0][0]
        if header.get("trace_sha256") != _trace_sha256(header.get("trace", "")):
            raise LedgerError(
                f"ledger {path} header trace hash mismatch — the embedded "
                "trace was altered; refusing to replay it"
            )
        # The replay compares bytes, so it is armed with the lines as
        # they are on disk, not with the records parsed from them.
        with open(path) as text_handle:
            lines = [
                line for line in text_handle.read().splitlines() if line.strip()
            ]
        handle = open(path, "a")
        # The header was verified above (kind, schema, trace hash), so
        # the replay is armed just past it: the run's first re-append
        # is compared against durable line 1, and so on.
        ledger = cls(
            path,
            handle,
            next_seq=1,
            crash_hook=crash_hook,
            expected_lines=lines,
        )
        ledger.torn_bytes_truncated = torn_bytes
        return ledger

    # -- plumbing -------------------------------------------------------

    def bind_tracer(self, tracer) -> None:
        self._tracer = tracer if getattr(tracer, "enabled", False) else None

    @property
    def closed(self) -> bool:
        return self._handle is None

    @property
    def verifying(self) -> bool:
        """True while replayed appends are still inside the durable
        prefix (nothing is being written yet)."""
        return (
            self._expected_lines is not None
            and self._seq < len(self._expected_lines)
        )

    @property
    def trace_text(self) -> str | None:
        """The embedded trace of a resumed ledger (None when fresh)."""
        if not self._expected_lines:
            return None
        return json.loads(self._expected_lines[0]).get("trace")

    def stream(self, run_id: str) -> LedgerStream:
        return LedgerStream(self, run_id)

    def append(self, kind: str, run: str | None = None, **fields) -> dict:
        if self._handle is None:
            raise LedgerError("ledger is closed")
        record = {"kind": kind, "seq": self._seq}
        if run is not None:
            record["run"] = run
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        if self.verifying:
            expected = self._expected_lines[self._seq]
            if line != expected:
                raise LedgerError(
                    f"replay diverged from durable ledger at seq {self._seq}: "
                    f"expected {expected[:120]!r}, replayed {line[:120]!r} — "
                    "the trace, seed or code changed since the crash"
                )
            # Already durable: advance without rewriting (and without
            # re-firing the crash hook — the record is not a new append).
            self._seq += 1
            return record
        self._seq += 1
        self._handle.write(line + "\n")
        self._handle.flush()
        if kind in SYNC_KINDS:
            os.fsync(self._handle.fileno())
        if self._tracer is not None:
            self._tracer.event(
                "ledger.append", kind=kind, seq=record["seq"], run=run or ""
            )
        if self.crash_hook is not None:
            self.crash_hook(record)
        return record

    def durable_prefix_len(self) -> int:
        """Records that survived the crash (the prefix a resume must
        reproduce before any new record is written; 0 when fresh)."""
        return len(self._expected_lines) if self._expected_lines else 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None


def read_ledger(path: str) -> tuple[list[dict], list[str]]:
    """Read a ledger back, tolerating (and reporting) a torn tail.

    Returns ``(records, warnings)``; validates the header and the
    global seq chain — a gap means lost durable records, which is
    corruption, not crash damage (:func:`repro.core.journal.read_wal`).
    """
    return wal.read_wal(
        path,
        LedgerError,
        "ledger",
        SCHEMA_VERSION,
        tail="ledger tail truncated: dropped record {index} ({size} byte(s): {exc})",
        gap="ledger seq gap at record {index}: got {seq!r}",
    )
