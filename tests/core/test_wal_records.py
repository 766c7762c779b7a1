"""The one declared table of journal and ledger records
(``repro.core.journal.RECORDS``), checked where the logs are read.

Every golden scenario's journal or ledger (the builders of
``test_wal_golden``) reads back through ``read_journal`` /
``read_ledger``, so every real append site answers to the table, and no
site writes a field the table does not declare.  A doctored log — a
misspelled kind, a record missing a field its reader needs — fails
closed with the log's own error, in the readers and in recovery.
"""

import json

import pytest

from repro.core import journal as wal
from repro.core.recovery import resume_run
from repro.service.ledger import LedgerError, MultiplexedLedger, read_ledger

from tests.core import test_wal_golden as golden

STAMPED = {"kind", "seq", "run"}


def is_ledger(name):
    return name.startswith(("f-", "g-"))


@pytest.mark.parametrize("name", sorted(golden.SCENARIOS))
def test_every_golden_log_reads_back_through_the_table(name, tmp_path):
    path = str(tmp_path / "scenario.wal")
    golden.SCENARIOS[name](path)
    if is_ledger(name):
        records, warnings = read_ledger(path)
        declared = wal.RECORDS[wal.LEDGER_SCHEMA]
    else:
        records, warnings = wal.read_journal(path)
        declared = wal.RECORDS[wal.SCHEMA_VERSION]
    assert warnings == []
    for record in records:
        fields = {field.rstrip("?") for field in declared[record["kind"]]}
        assert set(record) - STAMPED <= fields, record["kind"]


def doctor(path, kind, change):
    """Apply ``change`` to the first record of ``kind`` in the log."""
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    record = next(record for record in records if record["kind"] == kind)
    change(record)
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def rename_kind(record):
    record["kind"] = record["kind"][:-1]


def drop(field):
    return lambda record: record.pop(field)


@pytest.fixture()
def crashed_journal(tmp_path):
    """Scenario (c) killed on a digest of its third attempt: the journal
    holds a ``commit`` and an ``attempt_end`` and no ``run_end``."""
    path = str(tmp_path / "crashed.wal")
    with pytest.raises(wal.ControlTierCrash):
        golden.journaled_run(
            path,
            golden.fault_config(False, min_jobs=2),
            golden.ckpt.SCRIPT,
            golden.ckpt.ROWS,
            golden.fault_plan("node_0001", "node_0002"),
            crash_hook=wal.crash_at(37),
        )
    return path


@pytest.mark.parametrize(
    "kind, change, message",
    [
        (wal.COMMIT, rename_kind, "undeclared kind 'commi'"),
        (wal.COMMIT, drop("target"), r"\(commit\) lacks target"),
        (wal.ATTEMPT_END, drop("reused"), r"\(attempt_end\) lacks reused"),
        (wal.ATTEMPT_END, drop("evicted"), r"\(attempt_end\) lacks evicted"),
        (wal.RUN_START, drop("marked"), r"\(run_start\) lacks marked"),
    ],
)
def test_a_doctored_journal_fails_closed(crashed_journal, kind, change, message):
    doctor(crashed_journal, kind, change)
    with pytest.raises(wal.JournalError, match=message):
        wal.read_journal(crashed_journal)
    with pytest.raises(wal.JournalError, match=message):
        resume_run(
            crashed_journal,
            fault_plan=golden.fault_plan("node_0001", "node_0002"),
        )


@pytest.mark.parametrize(
    "kind, change, message",
    [
        (wal.ADMIT, rename_kind, "undeclared kind 'admi'"),
        (wal.ADMIT, drop("tenant"), r"\(admit\) lacks tenant"),
        (wal.COMMIT, drop("content"), r"\(commit\) lacks content"),
        (wal.SERVICE_END, drop("makespan"), r"\(service_end\) lacks makespan"),
    ],
)
def test_a_doctored_ledger_fails_closed(tmp_path, kind, change, message):
    path = str(tmp_path / "service.ledger")
    golden.ledger_scenario(path)
    doctor(path, kind, change)
    with pytest.raises(LedgerError, match=message):
        read_ledger(path)
    with pytest.raises(LedgerError, match=message):
        MultiplexedLedger.resume(path)
