"""Byzantine node behaviours.

The paper (§2.1, after Kihlstrom et al.) distinguishes *omission*
failures (a process does not send an expected message), *commission*
failures (it sends a message it should not — here: corrupt data), and
non-detectable failures.  §2.3 adds two adversary strengths: a *strong*
adversary controls every internal aspect of a node; a *weak* adversary
only causes omission or commission faults.

A behaviour object is attached to a worker node and consulted by the
MapReduce runtime at the points where the node could deviate:

* ``corrupt_records`` — applied to every record stream a task consumes
  (commission: the node computes on — and emits — tampered data, which
  downstream verification points then expose);
* ``omits_completion`` — the node never reports the task finished
  (omission at the execution level: the replica stalls);
* ``omits_digest`` — the node withholds the verification message only
  (omission at the verification level);
* ``slowdown`` — multiplier on task duration (a correct-but-slow node,
  used for paper Table 3 "case 2");
* ``corrupt_stored_output`` — applied to the records a task *stores*
  AFTER its verification taps ran (digest/data equivocation: the node
  reports honest digests over a stream it never persisted, so digest
  matching alone cannot expose it — only the trusted tier's commit-time
  content cross-check can);
* ``corrupt_read`` — bit-rot on the node's DFS-read path (the block the
  node claims to have read is not the block it computed on);
* ``note_task_start`` / ``is_crashed`` — crash-stop lifecycle: a node
  that dies mid-run simply stops heartbeating, and every task still in
  flight on it dies too.

The hooks that take an ``rng`` get the task attempt's own stream only
when the behaviour sets ``faulty`` or ``corrupts_storage``, and None
otherwise: a behaviour that draws must set one of the two flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.records import Record


class NodeBehavior:
    """A correct node: the default, and the base class for faults."""

    #: True when the behaviour can produce Byzantine deviations at all.
    faulty = False

    #: True when ``corrupt_read`` can tamper — lets the DFS read path
    #: skip per-read RNG stream setup for the (common) correct case.
    corrupts_storage = False

    def corrupt_records(
        self, records: list[Record], rng: random.Random | None
    ) -> list[Record]:
        return records

    def corrupt_stored_output(
        self, records: list[Record], rng: random.Random | None
    ) -> list[Record]:
        """Tamper the records a task persists, after digest taps ran."""
        return records

    def corrupt_read(
        self, records: list[Record], rng: random.Random | None
    ) -> list[Record]:
        """Bit-rot on this node's DFS block-read path."""
        return records

    def omits_completion(self, rng: random.Random | None) -> bool:
        return False

    def omits_digest(self, rng: random.Random | None) -> bool:
        return False

    def slowdown(self) -> float:
        return 1.0

    def note_task_start(self) -> None:
        """Called by the engine when this node starts a task attempt."""

    def is_crashed(self) -> bool:
        """True once the node has crash-stopped (checked per heartbeat)."""
        return False

    def describe(self) -> str:
        return type(self).__name__


CORRECT = NodeBehavior()


def tamper(record: Record) -> Record:
    """Deterministically corrupt one record.

    Every scalar field is mutated, so the corruption survives any
    downstream projection — a tamper that only touched one column would
    be invisible to queries that drop that column, which would let a
    commission fault slip past verification points on the projected
    stream (and make faults look milder than the Byzantine model allows).
    """
    fields = list(record.fields)
    changed = False
    for index, value in enumerate(fields):
        if isinstance(value, bool):
            fields[index] = not value
            changed = True
        elif isinstance(value, int):
            fields[index] = value + 1
            changed = True
        elif isinstance(value, float):
            fields[index] = value + 1.0
            changed = True
        elif isinstance(value, str):
            fields[index] = value + "☠"
            changed = True
        elif value is None:
            fields[index] = 0
            changed = True
    if not changed:
        fields.append("corrupt")
    return Record(tuple(fields))


@dataclass
class CommissionBehavior(NodeBehavior):
    """With ``probability`` per task, corrupt the stream the task sees.

    ``per_record_fraction`` controls how much of the stream is tampered
    when a fault fires (the default corrupts a single record — the
    hardest case for approximate digests to catch).
    """

    probability: float = 1.0
    per_record_fraction: float = 0.0

    faulty = True

    def corrupt_records(self, records: list[Record], rng: random.Random) -> list[Record]:
        if not records or rng.random() >= self.probability:
            return records
        corrupted = list(records)
        if self.per_record_fraction > 0:
            for index in range(len(corrupted)):
                if rng.random() < self.per_record_fraction:
                    corrupted[index] = tamper(corrupted[index])
        victim = rng.randrange(len(corrupted))
        corrupted[victim] = tamper(corrupted[victim])
        return corrupted

    def describe(self) -> str:
        return f"commission(p={self.probability})"


@dataclass
class OmissionBehavior(NodeBehavior):
    """With ``probability`` per task, never report completion; with
    ``digest_probability``, withhold only the digest message."""

    probability: float = 1.0
    digest_probability: float = 0.0

    faulty = True

    def omits_completion(self, rng: random.Random) -> bool:
        return rng.random() < self.probability

    def omits_digest(self, rng: random.Random) -> bool:
        return rng.random() < self.digest_probability

    def describe(self) -> str:
        return f"omission(p={self.probability})"


@dataclass
class SlowBehavior(NodeBehavior):
    """A correct node that is ``factor``× slower than its peers.

    Not Byzantine — used to reproduce Table 3 case 2, where one correct
    replica misses the verifier timeout and forces a rerun.
    """

    factor: float = 10.0

    def slowdown(self) -> float:
        return self.factor

    def describe(self) -> str:
        return f"slow(x{self.factor})"


def tamper_one(records: list[Record], rng: random.Random) -> list[Record]:
    """Corrupt a single rng-chosen record of a non-empty stream."""
    corrupted = list(records)
    victim = rng.randrange(len(corrupted))
    corrupted[victim] = tamper(corrupted[victim])
    return corrupted


@dataclass
class CrashBehavior(NodeBehavior):
    """Crash-stop: the node dies and stops heartbeating, permanently.

    ``after_tasks`` is the number of task attempts the node starts
    before dying (0 = it never does any work).  The crash itself takes
    effect at the node's next heartbeat: it stops announcing capacity,
    its in-flight task completions never fire, and the trusted execution
    tracker only learns of the death through heartbeat silence.  A
    behaviour instance carries the started-task counter, so it must not
    be shared between nodes.
    """

    after_tasks: int = 0

    faulty = True

    def __post_init__(self) -> None:
        self._tasks_started = 0

    def note_task_start(self) -> None:
        self._tasks_started += 1

    def is_crashed(self) -> bool:
        return self._tasks_started >= self.after_tasks

    def describe(self) -> str:
        return f"crash(after={self.after_tasks})"


@dataclass
class EquivocateBehavior(NodeBehavior):
    """Digest/data equivocation: honest digests, poisoned storage.

    With ``probability`` per task, the node computes the task correctly
    — so the digests it reports at every verification point are the
    *correct* ones and match the honest replicas — but the output it
    actually persists is tampered.  Digest comparison alone accepts the
    replica; only a trusted-tier cross-check of the stored bytes at
    commit time (or a downstream reader) can expose the divergence.
    """

    probability: float = 1.0

    faulty = True

    def corrupt_stored_output(self, records: list[Record], rng: random.Random) -> list[Record]:
        if not records or rng.random() >= self.probability:
            return records
        return tamper_one(records, rng)

    def describe(self) -> str:
        return f"equivocate(p={self.probability})"


@dataclass
class StorageCorruptionBehavior(NodeBehavior):
    """Bit-rot on the node's DFS read path.

    With ``probability`` per block read, the records the node computes
    on differ from the block the trusted DFS holds.  Unlike commission
    faults the node's *pipeline* is honest — but garbage in, garbage
    out: its digests cover the rotten stream and lose the vote, so the
    fault surfaces exactly like a commission failure (paper §2.1 folds
    both into the commission class).
    """

    probability: float = 1.0

    faulty = True
    corrupts_storage = True

    def corrupt_read(self, records: list[Record], rng: random.Random) -> list[Record]:
        if not records or rng.random() >= self.probability:
            return records
        return tamper_one(records, rng)

    def describe(self) -> str:
        return f"storage-rot(p={self.probability})"


@dataclass
class FlakyCommissionBehavior(NodeBehavior):
    """Commission faults that fire rarely — the paper's observation that
    "an infected node may be mostly producing correct output, and produce
    incorrect results occasionally" (§4.3), which slows fault isolation."""

    probability: float = 0.1

    faulty = True

    def corrupt_records(self, records: list[Record], rng: random.Random) -> list[Record]:
        if not records or rng.random() >= self.probability:
            return records
        corrupted = list(records)
        victim = rng.randrange(len(corrupted))
        corrupted[victim] = tamper(corrupted[victim])
        return corrupted

    def describe(self) -> str:
        return f"flaky-commission(p={self.probability})"


#: Worker fault kinds by the name chaos scenarios and tenant traces give
#: them, and their behaviour constructors.
FAULT_BEHAVIORS: dict[str, type[NodeBehavior]] = {
    "commission": CommissionBehavior,
    "flaky-commission": FlakyCommissionBehavior,
    "omission": OmissionBehavior,
    "slow": SlowBehavior,
    "crash": CrashBehavior,
    "equivocate": EquivocateBehavior,
    "storage-rot": StorageCorruptionBehavior,
}
