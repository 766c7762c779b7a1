"""Multiplexed service ledger: every run's journal, one durable file.

The single-run :class:`~repro.core.journal.Journal` is a one-WAL-one-
run contract.  The service multiplexes many concurrent runs, so their
journal streams interleave into one append-only ledger file — a
``Journal`` subclass: same JSONL/sorted-keys layout, same value codecs,
same append step, one *global* sequence number, each run-scoped record
tagged with its run id::

    {"kind": "header", "schema": "repro.ledger/v1", "seq": 0,
     "trace": "...", "trace_sha256": "..."}
    {"kind": "admit",  "seq": 1, "run": "script0001", "tenant": "alice"}
    {"kind": "run_start", "seq": 2, "run": "script0001", ...}
    {"kind": "digest", "seq": 7, "run": "script0002", ...}   # interleaved
    ...
    {"kind": "service_end", "seq": N, ...}

Durability policy is the journal's: the
:data:`~repro.core.journal.SYNC_KINDS` records (``header``,
``reconfig``, ``commit``, ``checkpoint``, ``attempt_end``, ``run_end``
and ``service_end``) are fsync'd before the writer returns; marker
records are flushed only.

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
from typing import Callable

from repro.common.errors import ReproError
from repro.core import journal as wal

SCHEMA_VERSION = wal.LEDGER_SCHEMA

HEADER = wal.HEADER  # the file format's, checked by ``wal.read_wal``


class LedgerError(ReproError):
    """Raised for ledger misuse or replay/prefix divergence."""


def _trace_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_ledger(path: str) -> tuple[list[dict], list[str]]:
    """Read a ledger back, tolerating (and reporting) a torn tail.

    Returns ``(records, warnings)``; validates the header, the global
    seq chain — a gap means lost durable records, which is corruption,
    not crash damage — and every record against the ledger's kinds in
    :data:`repro.core.journal.RECORDS` (:func:`repro.core.journal.read_wal`),
    then checks that the embedded trace still hashes to the header's
    ``trace_sha256``: an altered trace is never replayed.
    """
    records, warnings = wal.read_wal(path, LedgerError, "ledger", SCHEMA_VERSION)
    header = records[0]
    trace = header["trace"]
    if not isinstance(trace, str) or header["trace_sha256"] != _trace_sha256(trace):
        raise LedgerError(
            f"ledger {path} header trace hash mismatch — the embedded "
            "trace was altered; refusing to replay it"
        )
    return records, warnings


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


# ``create``, ``append`` and ``close`` stay in this class's own body,
# and call nothing of ``Journal``'s under those names, for the reason
# given at :class:`repro.core.journal.Journal`.
class MultiplexedLedger(wal.Journal):
    """Append-only, run-id-tagged, durable service ledger."""

    noun = "ledger"
    error = LedgerError
    schema = SCHEMA_VERSION
    read = staticmethod(read_ledger)
    #: Durable prefix a resume must reproduce byte-for-byte before any
    #: genuinely new record is appended (None = fresh ledger).
    _expected_lines: list[str] | None = None
    #: The embedded trace of a resumed ledger (None when fresh).
    trace_text: str | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def create(  # type: ignore[override]  # a ledger's header is a trace
        cls,
        path: str,
        trace_text: str,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> "MultiplexedLedger":
        """Start a fresh ledger (:meth:`~repro.core.journal.Journal._start`)
        whose header embeds the tenant trace and its hash."""
        return cls._start(
            path,
            crash_hook,
            "resume it with `repro serve --resume` or pass a fresh path",
            trace=trace_text,
            trace_sha256=_trace_sha256(trace_text),
        )

    @classmethod
    def resume(
        cls,
        path: str,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> "MultiplexedLedger":
        """Reopen a crashed service's ledger in verify-then-append mode.

        :meth:`~repro.core.journal.Journal.reopen` reads the ledger with
        :func:`read_ledger` — so anything but a well-formed ledger is a
        :class:`LedgerError`, and the file is left as it was — and only
        then truncates the torn tail (recording how many bytes were
        cut); the ledger is then armed with the surviving lines:
        replayed appends are verified against them in order, and writing
        resumes only past the durable prefix.
        """
        ledger, records = cls.reopen(path, crash_hook)
        ledger.trace_text = records[0]["trace"]
        # The replay compares bytes, so it is armed with the lines as
        # they are on disk, not with the records parsed from them, just
        # past the header :func:`read_ledger` verified: the run's first
        # re-append is compared against durable line 1, and so on.
        with open(path) as text_handle:
            ledger._expected_lines = [
                line for line in text_handle.read().splitlines() if line.strip()
            ]
        ledger._seq = 1
        return ledger

    # -- plumbing -------------------------------------------------------

    @property
    def verifying(self) -> bool:
        """True while replayed appends are still inside the durable
        prefix (nothing is being written yet)."""
        return (
            self._expected_lines is not None
            and self._seq < len(self._expected_lines)
        )

    def stream(self, run_id: str) -> LedgerStream:
        return LedgerStream(self, run_id)

    def append(self, kind: str, run: str | None = None, **fields) -> dict:
        if self._handle is None:
            raise LedgerError(f"ledger {self.path} is closed")
        record = {"kind": kind, "seq": self._seq}
        if run is not None:
            record["run"] = run
        record.update(fields)
        if not self.verifying:
            return self._write(record, run=run or "")
        line = json.dumps(record, sort_keys=True)
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

    def durable_prefix_len(self) -> int:
        """Records that survived the crash (the prefix a resume must
        reproduce before any new record is written; 0 when fresh)."""
        return len(self._expected_lines) if self._expected_lines else 0

    # The journal's close, bound under this class's own name so the
    # benchmark's by-name patch times a ledger's close as the ledger's.
    close = wal.Journal.close
