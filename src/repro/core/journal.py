"""Durable control-plane journal: an append-only write-ahead log.

The trusted control tier is the brain of every run (paper §4's
separation of duty) — and, until this module, its only copy of the
verification/commit state lived in memory.  The journal makes the
control tier restartable: before *acting on* any decision point the
controller appends one JSONL record describing the decision, so a
control-tier crash loses at most the work since the last settled
attempt boundary.  :mod:`repro.core.recovery` replays a journal into a
fresh controller and resumes the run.

Record stream layout (one JSON object per line, sorted keys)::

    {"kind": "header",  "seq": 0, "schema": "repro.journal/v1", ...}
    {"kind": "run_start", "seq": 1, ...}
    {"kind": "attempt_start", "seq": 2, ...}
    {"kind": "digest",  ...}          # one per verifiable replica completion
    {"kind": "verdict", ...}          # one per sid verdict
    {"kind": "fault" | "late_fault" | "analyzer", ...}
    {"kind": "eviction" | "quarantine", ...}
    {"kind": "reconfig", ...}         # fsync'd: region migration decision
    {"kind": "commit",  ...}          # fsync'd: committed output content
    {"kind": "checkpoint", ...}       # fsync'd: verdict-time commit (opt-in)
    {"kind": "attempt_end", ...}      # fsync'd: settled-boundary snapshot
    {"kind": "resume", ...}           # appended when a recovery reopens
    {"kind": "run_end", ...}          # fsync'd: final outputs + status

:data:`RECORDS` declares each kind's fields, for the journal and the
service ledger alike; the readers reject any record it does not allow.

Durability policy: the :data:`SYNC_KINDS` records — ``header``,
``reconfig``, ``commit``, ``checkpoint``, ``attempt_end``, ``resume``,
``run_end`` and the ledger's ``service_end`` — are flushed *and
fsync'd* before the writer returns
(these are the records recovery depends on); everything else is
flushed to the OS but not forced to stable storage — a torn tail of
marker records degrades crash-point coverage, never correctness.

The header is schema-versioned and tied to the run: it embeds the seed,
the full :class:`~repro.common.config.SystemConfig`, the script text
*and* its SHA-256, plus the staged input data-sets, so a journal is a
self-contained description of the run (recovery re-stages the inputs
and refuses a header whose script hash does not match its script).

Everything the journal does is host-side I/O: it never schedules event
loop work and never draws randomness, so a journaled run is
byte-identical (outputs, latency, trace) to an unjournaled one with the
same seed — the same invariant the telemetry layer keeps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
from itertools import chain
from operator import attrgetter
from typing import IO, Callable

from repro.common.config import (
    ClusterBFTConfig,
    ClusterConfig,
    CostModelConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError, ReproError
from repro.common.records import Record, encode_value
from repro.mapreduce.metrics import RunMetrics

SCHEMA_VERSION = "repro.journal/v1"

HEADER = "header"
RUN_START = "run_start"
ATTEMPT_START = "attempt_start"
DIGEST = "digest"
VERDICT = "verdict"
FAULT = "fault"
LATE_FAULT = "late_fault"
ANALYZER = "analyzer"
EVICTION = "eviction"
QUARANTINE = "quarantine"
#: Online reconfiguration: a region's replica sets migrated out after
#: its aggregate suspicion crossed the threshold.  Fsync'd — recovery
#: must re-quarantine the region's nodes before re-entering the run, or
#: the resumed scheduler would migrate work *back into* the degraded
#: region.
RECONFIG = "reconfig"
COMMIT = "commit"
#: Verdict-time commit (``ClusterBFTConfig.checkpoints``): a verified,
#: output-covered sub-graph committed *inside* a running attempt, with
#: the winning content inline.  Fsync'd — a crash mid-attempt resumes
#: from the last checkpoint instead of rerunning the whole sub-graph.
CHECKPOINT = "checkpoint"
ATTEMPT_END = "attempt_end"
RESUME = "resume"
RUN_END = "run_end"

#: The service ledger (:mod:`repro.service.ledger`) holds every run's
#: records above but ``resume``, tagged ``run``, beside its own kinds.
LEDGER_SCHEMA = "repro.ledger/v1"
ADMIT = "admit"
REJECT = "reject"
ENQUEUE = "enqueue"
DEQUEUE = "dequeue"
SERVICE_END = "service_end"

_RUN_RECORDS = {
    RUN_START: ("script_id", "jobs", "replication", "points", "marked",
                "include_output_points"),
    ATTEMPT_START: ("script_id", "attempt", "replication", "timeout", "jobs"),
    DIGEST: ("sid", "replica", "nodes"),
    VERDICT: ("sid", "status", "winners", "faulty_replicas"),
    FAULT: ("sid", "replica", "fault_kind", "nodes"),
    LATE_FAULT: ("sid", "replica", "fault_kind", "nodes"),
    ANALYZER: ("suspects", "cleared"),
    EVICTION: ("node", "suspicion", "jobs", "tenant?"),
    QUARANTINE: ("node", "suspicion", "jobs", "tenant?"),
    RECONFIG: ("region", "suspicion", "jobs", "nodes", "sids", "tenant?"),
    COMMIT: ("sid", "job_index", "path", "target", "winner", "content"),
    CHECKPOINT: ("sid", "job_index", "path", "target", "winner", "content"),
    ATTEMPT_END: ("script_id", "attempt", "attempts_used", "next_replication",
                  "next_timeout", "verified_jobs", "verified_ok",
                  "verified_paths", "reused", "suspicion", "analyzer",
                  "evicted", "quarantined"),
    RUN_END: ("script_id", "assured", "exhausted", "attempts", "reused",
              "checkpoints?", "latency", "outputs"),
}

#: Every record kind of both logs, by schema, with its fields: the one
#: declaration of what a journal or ledger may hold.  ``kind`` and
#: ``seq`` are on every record; the ledger also tags a run's records
#: with ``run``.  A trailing ``?`` marks a field some v1 writers leave
#: out: the tenant of a record appended outside a service run, the
#: ``resume`` a recovery writes before any ``run_start``, and the
#: ``run_end.checkpoints`` that journals older than the checkpoint tier
#: lack.  :func:`read_wal` rejects a kind its log does not declare and a
#: record missing a required field, so no reader meets a record it
#: cannot act on.
RECORDS: dict[str, dict[str, tuple[str, ...]]] = {
    SCHEMA_VERSION: {
        HEADER: ("schema", "seed", "script", "script_sha256", "config",
                 "block_bytes", "inputs"),
        **_RUN_RECORDS,
        RESUME: ("script_id?", "start_attempt", "commits_replayed",
                 "checkpoints_replayed?"),
    },
    LEDGER_SCHEMA: {
        HEADER: ("schema", "trace", "trace_sha256"),
        **_RUN_RECORDS,
        ADMIT: ("tenant", "workload", "index", "t", "queued_for"),
        REJECT: ("tenant", "workload", "index", "t", "reason"),
        ENQUEUE: ("tenant", "workload", "index", "t", "depth"),
        DEQUEUE: ("tenant", "workload", "index", "t", "waited"),
        SERVICE_END: ("runs", "assured", "rejected", "quarantined", "evicted",
                      "makespan"),
    },
}

#: Record kinds whose loss would corrupt recovery, in either log —
#: forced to stable storage before the append returns.
SYNC_KINDS = frozenset(
    {HEADER, RECONFIG, COMMIT, CHECKPOINT, ATTEMPT_END, RESUME, RUN_END, SERVICE_END}
)


class JournalError(ReproError):
    """Malformed, mismatched or misused journal."""


class ControlTierCrash(RuntimeError):
    """Simulated control-tier crash, raised by a journal crash hook.

    Deliberately *not* a :class:`ReproError`: library error handling
    must never swallow a simulated crash — only the chaos harness (or a
    test) that installed the hook catches it.
    """


def crash_at(seq: int) -> Callable[[dict], None]:
    """A crash hook killing the control tier right after record ``seq``
    becomes durable (the record is written, the action it announces is
    not yet taken — the write-ahead window recovery must handle)."""

    def hook(record: dict) -> None:
        if record["seq"] == seq:
            raise ControlTierCrash(
                f"control tier crashed at journal record {seq} "
                f"({record['kind']})"
            )

    return hook


def env_kill_hook() -> Callable[[dict], None] | None:
    """Chaos seam for the CI kill-and-resume job: with
    ``REPRO_JOURNAL_KILL_AT=<seq>`` in the environment, the process
    SIGKILLs itself right after journal record ``<seq>`` becomes
    durable — a real, unhandleable control-tier death.  ``repro run``,
    ``repro resume`` and ``repro serve`` all install it."""
    value = os.environ.get("REPRO_JOURNAL_KILL_AT")
    if not value:
        return None
    try:
        target = int(value)
    except ValueError:
        raise SystemExit(
            f"REPRO_JOURNAL_KILL_AT needs an integer seq, got {value!r}"
        )

    def hook(record: dict) -> None:
        if record["seq"] == target:
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


# ---------------------------------------------------------------------------
# JSON codec for record field values
# ---------------------------------------------------------------------------
#
# Record fields are scalars plus nested tuples and bags; JSON has no
# tuple/bag distinction, so containers are tagged: {"t": [...]} is a
# tuple, {"r": [...]} a nested Record (digest-equivalent to a tuple,
# but Record.__eq__ is type-strict, so the distinction must survive
# the round-trip), {"b": [...]} a bag (canonically ordered by encoded
# bytes, the same canonicalization the digest layer applies — bag
# order never carries meaning).


def value_to_json(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Record):
        return {"r": [value_to_json(v) for v in value.fields]}
    if isinstance(value, tuple):
        return {"t": [value_to_json(v) for v in value]}
    if isinstance(value, (list, frozenset)):
        ordered = sorted(value, key=encode_value)
        return {"b": [value_to_json(v) for v in ordered]}
    raise JournalError(f"unsupported field type: {type(value).__name__}")


def value_from_json(value):
    if isinstance(value, dict):
        if "t" in value:
            return tuple(value_from_json(v) for v in value["t"])
        if "r" in value:
            return Record(tuple(value_from_json(v) for v in value["r"]))
        if "b" in value:
            return [value_from_json(v) for v in value["b"]]
        raise JournalError(f"unknown value tag: {sorted(value)}")
    return value


def record_to_json(record: Record) -> list:
    return records_to_json([record])[0]


def record_from_json(fields: list) -> Record:
    if type(fields) is not list:
        raise JournalError(f"row is not a list: {fields!r}")
    return Record(tuple(value_from_json(v) for v in fields))


#: Exact types ``value_to_json`` returns as they are.
_PLAIN_TYPES = frozenset({type(None), bool, int, float, str})


def records_to_json(records: list[Record]) -> list[list]:
    """Each record's fields: a copy when every field's exact type is
    plain (what ``value_to_json`` would return, without a call per
    field), else through ``value_to_json`` field by field.

    One pass over the whole batch's fields decides the common case, in
    which every field is plain; a batch that holds any other field
    decides record by record."""
    rows = list(map(attrgetter("fields"), records))
    plain = _PLAIN_TYPES.issuperset
    if plain(map(type, chain.from_iterable(rows))):
        return list(map(list, rows))
    return [
        list(fields) if plain(map(type, fields)) else [value_to_json(v) for v in fields]
        for fields in rows
    ]


def records_from_json(rows: list[list]) -> list[Record]:
    return [record_from_json(row) for row in rows]


def script_sha256(script: str) -> str:
    return hashlib.sha256(script.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------


def config_to_json(config: SystemConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_json(data: dict) -> SystemConfig:
    try:
        return SystemConfig(
            cluster=ClusterConfig(**data["cluster"]),
            cost=CostModelConfig(**data["cost"]),
            bft=ClusterBFTConfig(**data["bft"]),
            seed=data["seed"],
        ).validate()
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise JournalError(f"journal header config does not round-trip: {exc}")


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------
#
# ``Journal`` and ``repro.service.ledger.MultiplexedLedger`` are the same
# kind of file: JSONL, sorted keys, a header at ``seq`` 0, one global seq
# chain, a tail a crash may tear.  ``read_wal`` knows that format once;
# each log's reader adds the checks of its own header.


def read_wal(
    path: str, error: type[ReproError], noun: str, schema: str
) -> tuple[list[dict], list[str]]:
    """Read a log back as ``(records, warnings)``, tolerating a torn tail.

    Records are newline-terminated, so whatever follows the last newline
    is a record a crash cut short (the writer's rule too, see
    :meth:`Journal.reopen`): expected crash damage, reported as one
    warning and dropped, even where it parses.  Anything else fails
    closed with ``error``: an unreadable file, bytes before the last
    newline that are not UTF-8, a line that does not parse, a line that
    parses to something other than an object, no records at all, a
    first record that is not a ``schema`` header, a break in the seq
    chain — lost durable records are corruption, not crash damage — and
    a record whose kind ``RECORDS`` does not declare for ``schema``, or
    that lacks a field it requires.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise error(f"cannot read {noun}: {exc}")
    body, _, torn = data.rpartition(b"\n")
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{noun} {path} is not UTF-8 text: {exc}")
    lines = [line for line in text.splitlines() if line.strip()]
    warnings: list[str] = []
    if torn:
        warnings.append(
            f"{noun} tail truncated: dropped record {len(lines)} "
            f"({len(torn)} byte(s) after the last newline)"
        )
    records: list[dict] = []
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise error(f"{noun} corrupt at record {index}: {exc}")
        if not isinstance(record, dict):
            raise error(
                f"{noun} corrupt at record {index}: "
                f"a {type(record).__name__}, not an object"
            )
        records.append(record)
    if not records:
        raise error(f"{noun} {path} is empty")
    header = records[0]
    if header.get("kind") != HEADER:
        raise error(f"{noun} {path} does not start with a header")
    if header.get("schema") != schema:
        raise error(
            f"unsupported {noun} schema {header.get('schema')!r} "
            f"(expected {schema})"
        )
    declared = RECORDS[schema]
    for index, record in enumerate(records):
        kind = record.get("kind")
        if record.get("seq") != index:
            raise error(
                f"{noun} seq gap: expected {index}, got {record.get('seq')!r} ({kind})"
            )
        fields = declared.get(kind)
        if fields is None:
            raise error(f"{noun} record {index} has an undeclared kind {kind!r}")
        missing = [name for name in fields if name[-1] != "?" and name not in record]
        if missing:
            raise error(f"{noun} record {index} ({kind}) lacks {', '.join(missing)}")
    return records, warnings


def read_journal(path: str) -> tuple[list[dict], list[str]]:
    """Read a journal back (:func:`read_wal`), then check the header
    before anything else is trusted: the script hash, and that the
    config and the block size decode to what a resumed controller is
    built from.  The header's ``inputs`` comes back decoded: the
    records a resume stages."""
    records, warnings = read_wal(path, JournalError, "journal", SCHEMA_VERSION)
    header = records[0]
    if not isinstance(header["script"], str):
        raise JournalError("journal header script is not text")
    recorded = header["script_sha256"]
    actual = script_sha256(header["script"])
    if recorded != actual:
        raise JournalError(
            f"journal header script hash mismatch: recorded {recorded}, "
            f"script hashes to {actual} — header tampered or corrupt"
        )
    config_from_json(header["config"])
    block_bytes = header["block_bytes"]
    if type(block_bytes) is not int or block_bytes < 1:
        raise JournalError(
            f"journal header block_bytes={block_bytes!r} is not a positive integer"
        )
    try:
        header["inputs"] = {
            dfs_path: records_from_json(rows)
            for dfs_path, rows in header["inputs"].items()
        }
    except (AttributeError, TypeError, ValueError, JournalError) as exc:
        raise JournalError(f"journal header inputs do not decode: {exc}")
    return records, warnings


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


# The one write-ahead log class: ``MultiplexedLedger``
# (``repro.service.ledger``) subclasses it and adds only what differs —
# its header, the ``run`` tag and a resume that verifies the replay
# against the durable prefix.  The host-clock benchmark
# (``benchmarks/perf/tracing.py``) times and counts the two logs apart by
# replacing ``create``, ``append`` and ``close`` in each class's own
# ``vars()``, and ``encode_value`` in this module, by name.  So each class
# keeps those three names in its own body, and none of them calls the
# other class's (nor ``super().append``): that would nest one log's span
# inside the other's.
class Journal:
    """Append-only write-ahead journal for one assured run.

    ``crash_hook`` — chaos seam: called with each record *after* it is
    durable; raising :class:`ControlTierCrash` (or sending SIGKILL)
    models the control tier dying at exactly that decision point.
    ``tracer`` — when bound (and enabled), every append also lands a
    ``journal.append`` event in the telemetry trace.
    """

    #: What the shared steps below say and read of each log.
    noun = "journal"
    error: type[ReproError] = JournalError
    schema = SCHEMA_VERSION
    read = staticmethod(read_journal)

    def __init__(
        self,
        path: str,
        handle: IO[str],
        next_seq: int,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> None:
        self.path = path
        self._handle: IO[str] | None = handle
        self._seq = next_seq
        self.crash_hook = crash_hook
        self._tracer = None
        #: Bytes of torn tail :meth:`reopen` truncated before appending
        #: (0 for a fresh or clean log).  Callers surface this in the
        #: audit log — dropped crash damage is evidence, not noise.
        self.torn_bytes_truncated = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        config: SystemConfig,
        script: str,
        inputs: dict[str, list[Record]],
        block_bytes: int = 1 << 20,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> "Journal":
        """Start a fresh journal (:meth:`_start`) whose header binds it
        to one run: seed, config, script and its hash, staged inputs."""
        return cls._start(
            path,
            crash_hook,
            "one WAL describes one run; resume it with `repro resume` "
            "or pass a fresh path",
            seed=config.seed,
            script=script,
            script_sha256=script_sha256(script),
            config=config_to_json(config),
            block_bytes=block_bytes,
            inputs={
                dfs_path: records_to_json(records)
                for dfs_path, records in sorted(inputs.items())
            },
        )

    @classmethod
    def _start(
        cls,
        path: str,
        crash_hook: Callable[[dict], None] | None,
        resume_hint: str,
        **header,
    ):
        """Create the log at ``path`` and write (and fsync) its header.

        Refuses an existing path (``resume_hint`` says what to do
        instead) — one log describes one execution, and silently
        truncating a prior one would destroy its recovery state.  The
        parent directory is fsync'd so the new file's directory entry
        survives a host crash too (where the platform can: not on
        Windows).
        """
        try:
            handle = open(path, "x")
        except FileExistsError:
            raise cls.error(f"{cls.noun} {path} already exists — {resume_hint}")
        log = cls(path, handle, 0, crash_hook)
        log.append(HEADER, schema=cls.schema, **header)
        try:
            directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        except OSError:
            return log
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        return log

    @classmethod
    def reopen(cls, path: str, crash_hook: Callable[[dict], None] | None = None):
        """Reopen a crashed log for appending (recovery path); returns
        the log, positioned after its last record, and the records.

        The log's reader goes first, so a file that is not a log fails
        closed untouched.  Records are newline-terminated, so everything
        after the last newline is the torn tail: the reader drops it,
        and only after the read succeeds is it truncated, so no record
        a crash cut short — not even one missing only its newline — is
        read back or appended after.  A crash mid-append can tear the
        final line; it has to go *before* the next append, or that
        record would be concatenated onto it, turning expected crash
        damage into mid-file corruption that poisons every later read.
        """
        records = cls.read(path)[0]
        try:
            with open(path, "rb+") as raw:
                data = raw.read()
                keep = data.rfind(b"\n") + 1
                if keep < len(data):
                    raw.truncate(keep)
                    raw.flush()
                    os.fsync(raw.fileno())
        except OSError as exc:
            raise cls.error(f"cannot read {cls.noun}: {exc}")
        log = cls(path, open(path, "a"), len(records), crash_hook)
        log.torn_bytes_truncated = len(data) - keep
        return log, records

    # -- plumbing -------------------------------------------------------

    def bind_tracer(self, tracer) -> None:
        self._tracer = tracer if getattr(tracer, "enabled", False) else None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def append(self, kind: str, **fields) -> dict:
        """Write one record; returns it (with ``seq`` stamped)."""
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        record = {"kind": kind, "seq": self._seq}
        record.update(fields)
        return self._write(record)

    def _write(self, record: dict, **event) -> dict:
        """The append step of both logs.  Records of :data:`SYNC_KINDS`
        are fsync'd before returning; all others are flushed to the OS
        only.  A bound tracer gets a ``<noun>.append`` event (plus
        ``event``).  The crash hook fires after durability, i.e. the
        record survives the crash it triggers."""
        kind = record["kind"]
        self._seq += 1
        handle = self._handle
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        if kind in SYNC_KINDS:
            os.fsync(handle.fileno())
        if self._tracer is not None:
            self._tracer.event(
                f"{self.noun}.append", kind=kind, seq=record["seq"], **event
            )
        if self.crash_hook is not None:
            self.crash_hook(record)
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# run state
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RunState:
    """The control tier's state of one script (paper §4, Fig. 2): which
    sub-graphs are verified and committed, and at what replication degree
    and timeout the next attempt runs.  The paper's Table 3 saving is
    "reuse what this says is committed" (:meth:`rerun_closure`).

    A fresh run builds it from the configuration (:meth:`fresh`), a
    resumed run from WAL records (:meth:`replayed`); from there on the
    controller treats both alike.  The fields up to ``resumed`` are what
    an ``attempt_end`` record carries of it — written by
    :meth:`journal_attempt_end` and read back by :meth:`replayed`, the
    only two places that name them.  What :meth:`bind` attaches is
    reported, never journaled, and not part of equality.
    """

    script_id: str
    #: Replication degree and verifier timeout of the next attempt.
    replication: int
    timeout: float
    start_attempt: int = 0
    attempts_used: int = 0
    #: Jobs whose sid VERIFIED, and the subset that is *committed*: the
    #: verification point covered the job's output stream and the stored
    #: bytes survived the content cross-check, so the output is reusable
    #: across attempts and publishable, from the verified copy
    #: ``verified_paths`` maps its logical path to.
    verified_ok: set[int] = dataclasses.field(default_factory=set)
    verified_jobs: set[int] = dataclasses.field(default_factory=set)
    verified_paths: dict[str, str] = dataclasses.field(default_factory=dict)
    reused: int = 0  # jobs skipped on reruns thanks to commits
    #: Built by :meth:`replayed`.  A resumed run writes no second
    #: ``run_start``, and its first attempt takes the rerun closure like
    #: every later one: commits replayed from the journal are reused,
    #: never re-executed.
    resumed: bool = False

    #: Where this run's records go: the controller's journal, or the
    #: run's own stream of a service ledger.  ``None``: not journaled.
    journal: object = dataclasses.field(default=None, compare=False, repr=False)

    # -- construction ---------------------------------------------------

    @classmethod
    def fresh(cls, script_id: str, config: ClusterBFTConfig) -> "RunState":
        return cls(script_id, config.replication, config.verifier_timeout)

    @classmethod
    def replayed(
        cls, run_start: dict, snapshot: dict | None, config: ClusterBFTConfig
    ) -> "RunState":
        """The state a journaled run had reached at its last settled
        attempt boundary: ``snapshot`` is the latest ``attempt_end``
        record (``None`` when the crash came before the first one).
        Commits journaled after it are the caller's to :meth:`settle`."""
        run = cls.fresh(run_start["script_id"], config)
        run.resumed = True
        if snapshot is not None:
            run.start_attempt = snapshot["attempt"] + 1
            run.attempts_used = snapshot["attempts_used"]
            run.replication = snapshot["next_replication"]
            run.timeout = snapshot["next_timeout"]
            run.verified_jobs = set(snapshot["verified_jobs"])
            run.verified_ok = set(snapshot["verified_ok"])
            run.verified_paths = dict(snapshot["verified_paths"])
            run.reused = snapshot["reused"]
        return run

    def journal_attempt_end(
        self, attempt_index: int, *, suspicion, analyzer, evicted, quarantined
    ) -> None:
        """The settled attempt boundary (fsync'd): everything recovery
        needs to rebuild the control tier's state — this run's half, and
        the tier's (keyword arguments: the resource manager's
        ``snapshot()``, read back by its ``replay()``).
        ``next_replication``/``next_timeout`` are the deterministic
        escalation values, written *before* the escalation runs
        (write-ahead)."""
        self.journal.append(
            ATTEMPT_END,
            script_id=self.script_id,
            attempt=attempt_index,
            attempts_used=self.attempts_used,
            next_replication=self.replication + self.config.rerun_extra_replicas,
            next_timeout=self.escalated_timeout(),
            verified_jobs=sorted(self.verified_jobs),
            verified_ok=sorted(self.verified_ok),
            verified_paths=dict(sorted(self.verified_paths.items())),
            reused=self.reused,
            suspicion=suspicion,
            analyzer=analyzer,
            evicted=evicted,
            quarantined=quarantined,
        )

    def bind(self, prepared, journal) -> "RunState":
        """Attach the prepared script (and what the steps keep asking its
        job graph), the journal handle, and an empty record of the
        execution: what :class:`~repro.core.controller.ScriptResult`
        reports."""
        self.prepared = prepared
        self.config: ClusterBFTConfig = prepared.config
        self.journal = journal
        graph = prepared.job_graph
        self.order = graph.topological_order()
        self.deps = graph.dependencies()
        self.internal_paths = graph.internal_paths()
        self.verifiable = set(prepared.jobs_with_digests())
        self.final_jobs = [
            i for i, job in enumerate(graph.jobs) if not job.output_is_temp
        ]
        self.metrics = RunMetrics()
        #: Every attempt's verification outcomes and job runs, in order.
        self.outcomes: list = []
        self.job_runs: list = []
        self.last_attempt = None
        self.checkpointed = 0  # verdict-time commits merged so far
        return self

    # -- what is left to do ---------------------------------------------

    def rerun_closure(self) -> list[int]:
        """Jobs that must run again: every verifiable job not yet
        VERIFIED, plus (transitively) the uncommitted upstream jobs
        feeding them.  Committed sub-graphs are reused — the paper's
        variable-grain recomputation saving."""
        needed = self.verifiable - self.verified_ok
        frontier = sorted(needed)
        while frontier:
            job_index = frontier.pop()
            for dep in self.deps[job_index]:
                if dep not in self.verified_jobs and dep not in needed:
                    needed.add(dep)
                    frontier.append(dep)
        return [i for i in self.order if i in needed]

    def attempt_indexes(self) -> range:
        """Attempt indexes left in the rerun budget.

        A restored snapshot may already cover the full commit set — e.g.
        a crash landed between the final attempt's ``attempt_end`` and
        ``run_end``, leaving ``start_attempt`` past ``max_reruns``.  Such
        a run gets no attempt at all, and :attr:`assured` judges it by
        the restored state alone: an empty range must never read as
        exhaustion."""
        if self.resumed and not self.rerun_closure():
            self.reused += len(self.order)
            return range(0)
        return range(self.start_attempt, self.config.max_reruns + 1)

    def next_pending(self, attempt_index: int) -> list[int]:
        """Jobs attempt ``attempt_index`` runs: the whole graph on a
        fresh run's first attempt, the rerun closure otherwise (counting
        what it spares as reused)."""
        if attempt_index == self.start_attempt and not self.resumed:
            return list(self.order)
        pending = self.rerun_closure()
        self.reused += len(self.order) - len(pending)
        return pending

    @property
    def assured(self) -> bool:
        """Every final output committed and every verifiable job
        VERIFIED.  A script with nothing to verify (outputs not
        instrumented) runs once, publishes best-effort and is never
        assured."""
        return (
            bool(self.verifiable)
            and all(i in self.verified_jobs for i in self.final_jobs)
            and self.verifiable <= self.verified_ok
        )

    @property
    def exhausted(self) -> bool:
        """Out of attempts (asked once they are) without assurance."""
        return bool(self.verifiable) and not self.assured

    def unsettled(self) -> list[str]:
        return [
            f"{self.script_id}.j{job_index}"
            for job_index in sorted(self.verifiable - self.verified_ok)
        ]

    # -- moving on ------------------------------------------------------

    def settle(
        self, job_index: int, logical: str | None = None, target: str | None = None
    ) -> None:
        """Job ``job_index`` VERIFIED; given a ``target``, its ``logical``
        output is committed there."""
        self.verified_ok.add(job_index)
        if target is not None:
            self.verified_paths[logical] = target
            self.verified_jobs.add(job_index)

    def escalated_timeout(self) -> float:
        """Next attempt's verifier timeout: doubled, clamped to the
        configured ``max_verifier_timeout`` ceiling.  Used for both the
        live escalation and the journaled ``next_timeout`` so a resumed
        run restores exactly the value an uninterrupted run would have
        used."""
        doubled = self.timeout * 2
        cap = self.config.max_verifier_timeout
        return doubled if cap is None else min(doubled, cap)

    def escalate(self) -> None:
        self.replication += self.config.rerun_extra_replicas
        self.timeout = self.escalated_timeout()
