"""Multiplexed ledger: durability, torn tails, replay verification."""

import json
import os

import pytest

from repro.service.ledger import (
    HEADER,
    LedgerError,
    MultiplexedLedger,
    read_ledger,
)


#: Well-formed record bodies (``repro.core.journal.RECORDS``).
DIGEST = {"replica": 0, "nodes": ["node_0001"]}
COMMIT = {"job_index": 0, "path": "out", "target": "t", "winner": 0, "content": []}
VERDICT = {"sid": "s", "winners": [0, 1], "faulty_replicas": []}


def admit(tenant="alice"):
    return {"tenant": tenant, "workload": "w", "index": 0, "t": 0.0, "queued_for": 0.0}


def make_ledger(tmp_path, trace='{"name": "t"}'):
    path = os.path.join(tmp_path, "svc.ledger")
    return path, MultiplexedLedger.create(path, trace)


def test_create_writes_fsynced_header(tmp_path):
    path, ledger = make_ledger(str(tmp_path))
    ledger.close()
    records, warnings = read_ledger(path)
    assert warnings == []
    assert records[0]["kind"] == HEADER
    assert records[0]["seq"] == 0
    assert records[0]["trace"] == '{"name": "t"}'


def test_create_refuses_existing_path(tmp_path):
    path, ledger = make_ledger(str(tmp_path))
    ledger.close()
    with pytest.raises(LedgerError, match="already exists"):
        MultiplexedLedger.create(path, "{}")


def test_streams_tag_records_with_run_id(tmp_path):
    path, ledger = make_ledger(str(tmp_path))
    one = ledger.stream("script0001")
    two = ledger.stream("script0002")
    one.append("digest", sid="a", **DIGEST)
    two.append("digest", sid="b", **DIGEST)
    one.append("commit", sid="a", **COMMIT)
    ledger.close()
    records, _ = read_ledger(path)
    assert [(r.get("run"), r["kind"]) for r in records[1:]] == [
        ("script0001", "digest"),
        ("script0002", "digest"),
        ("script0001", "commit"),
    ]
    assert [r["seq"] for r in records] == [0, 1, 2, 3]


def test_closed_stream_refuses_appends(tmp_path):
    _, ledger = make_ledger(str(tmp_path))
    stream = ledger.stream("script0001")
    stream.close()
    with pytest.raises(LedgerError, match="closed"):
        stream.append("digest")
    ledger.close()


def test_read_ledger_tolerates_torn_tail(tmp_path):
    path, ledger = make_ledger(str(tmp_path))
    ledger.append("admit", run="script0001", **admit())
    ledger.close()
    with open(path, "a") as handle:
        handle.write('{"kind": "dig')  # no newline: torn final record
    records, warnings = read_ledger(path)
    assert len(records) == 2
    assert len(warnings) == 1 and "truncated" in warnings[0]


def test_read_ledger_rejects_seq_gap(tmp_path):
    path, ledger = make_ledger(str(tmp_path))
    ledger.append("admit", run="script0001", **admit())
    ledger.close()
    lines = open(path).read().splitlines()
    doctored = json.loads(lines[1])
    doctored["seq"] = 7
    lines[1] = json.dumps(doctored, sort_keys=True)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(LedgerError, match="seq gap"):
        read_ledger(path)


@pytest.mark.parametrize("line", ["null", "[1]", '"admit"'])
def test_read_ledger_rejects_a_line_that_is_not_an_object(tmp_path, line):
    path, ledger = make_ledger(str(tmp_path))
    ledger.close()
    with open(path, "a") as handle:
        handle.write(line + "\n")
    with pytest.raises(LedgerError, match="corrupt at record 1"):
        read_ledger(path)


@pytest.mark.parametrize("first_line", ["{garbled", "null", "[1]", "7"])
def test_resume_rejects_a_garbled_header(tmp_path, first_line):
    path = str(tmp_path / "bad.ledger")
    with open(path, "w") as handle:
        handle.write(first_line + '\n{"kind": "admit", "seq": 1}\n')
    with pytest.raises(LedgerError, match="corrupt at record 0"):
        MultiplexedLedger.resume(path)
    # Alone in the file it is what a torn header append leaves behind.
    with open(path, "w") as handle:
        handle.write(first_line + "\n")
    with pytest.raises(LedgerError, match="corrupt at record 0|is empty"):
        MultiplexedLedger.resume(path)


def test_resume_of_a_missing_ledger_is_a_ledger_error(tmp_path):
    with pytest.raises(LedgerError, match="cannot read ledger"):
        MultiplexedLedger.resume(str(tmp_path / "absent.ledger"))


def test_resume_truncates_and_counts_torn_tail(tmp_path):
    path, ledger = make_ledger(str(tmp_path))
    ledger.append("admit", run="script0001", **admit())
    ledger.close()
    with open(path, "a") as handle:
        handle.write('{"kind": "torn-tail-bytes')
    resumed = MultiplexedLedger.resume(path)
    assert resumed.torn_bytes_truncated == len('{"kind": "torn-tail-bytes')
    assert resumed.durable_prefix_len() == 2
    resumed.close()
    # The file itself was repaired.
    records, warnings = read_ledger(path)
    assert warnings == [] and len(records) == 2


def test_resume_verifies_prefix_then_appends(tmp_path):
    path, ledger = make_ledger(str(tmp_path))
    ledger.append("admit", run="script0001", **admit("alice"))
    ledger.close()
    fired = []
    resumed = MultiplexedLedger.resume(path, crash_hook=fired.append)
    assert resumed.verifying
    # Byte-identical replay of the durable record: verified, not
    # rewritten, and the crash hook must NOT re-fire.
    resumed.append("admit", run="script0001", **admit("alice"))
    assert fired == []
    assert not resumed.verifying
    # Past the prefix: genuinely new appends write and fire the hook.
    resumed.append("verdict", run="script0001", status="ok", **VERDICT)
    assert [r["kind"] for r in fired] == ["verdict"]
    resumed.close()
    records, _ = read_ledger(path)
    assert [r["kind"] for r in records] == ["header", "admit", "verdict"]


def test_resume_rejects_divergent_replay(tmp_path):
    path, ledger = make_ledger(str(tmp_path))
    ledger.append("admit", run="script0001", **admit("alice"))
    ledger.close()
    resumed = MultiplexedLedger.resume(path)
    with pytest.raises(LedgerError, match="replay diverged"):
        resumed.append("admit", run="script0001", **admit("eve"))
    resumed.close()


def test_resume_rejects_tampered_trace(tmp_path):
    path, ledger = make_ledger(str(tmp_path))
    ledger.close()
    lines = open(path).read().splitlines()
    header = json.loads(lines[0])
    header["trace"] = '{"name": "tampered"}'
    with open(path, "w") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
    # The reader checks the trace as ``read_journal`` checks the script,
    # so every reader refuses it, not only ``resume``.
    with pytest.raises(LedgerError, match="hash mismatch"):
        read_ledger(path)
    with pytest.raises(LedgerError, match="hash mismatch"):
        MultiplexedLedger.resume(path)


def test_closed_ledger_refuses_appends(tmp_path):
    _, ledger = make_ledger(str(tmp_path))
    ledger.close()
    with pytest.raises(LedgerError, match="closed"):
        ledger.append("admit")
