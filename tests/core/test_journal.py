"""Unit tests for the control-plane write-ahead journal."""

import json

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import Record, records_from_rows
from repro.core import journal as wal


def small_config(seed: int = 7) -> SystemConfig:
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=8, slots_per_node=2),
        bft=ClusterBFTConfig(f=1, replication=4),
        seed=seed,
    )


INPUTS = {"in": records_from_rows([(1, 10), (2, None), (1, 30)])}
SCRIPT = "A = LOAD 'in' AS (k:int, v:int);\nSTORE A INTO 'out';\n"


class TestValueCodec:
    def test_scalars_round_trip(self):
        for value in (None, True, 3, 2.5, "s"):
            assert wal.value_from_json(wal.value_to_json(value)) == value

    def test_nested_tuple_round_trip(self):
        value = (1, ("a", None), 2.5)
        assert wal.value_from_json(wal.value_to_json(value)) == value

    def test_bag_is_canonically_ordered(self):
        # Bags carry no order; the codec sorts by encoded form so two
        # permutations serialize identically.
        a = wal.value_to_json([(2, "y"), (1, "x")])
        b = wal.value_to_json([(1, "x"), (2, "y")])
        assert a == b
        assert wal.value_from_json(a) == [(1, "x"), (2, "y")]

    def test_record_round_trip(self):
        record = Record((1, "x", (2, [("a",), ("b",)])))
        restored = wal.record_from_json(wal.record_to_json(record))
        assert restored == record

    def test_nested_record_round_trips_as_record(self):
        # Record.__eq__ is type-strict: a nested Record must come back
        # as a Record, not be coerced to a plain tuple (distinct tags).
        inner = Record((1, "x"))
        restored = wal.value_from_json(wal.value_to_json(inner))
        assert isinstance(restored, Record)
        assert restored == inner
        assert wal.value_to_json(inner) != wal.value_to_json((1, "x"))
        outer = Record((0, inner, (2, 3)))
        assert wal.record_from_json(wal.record_to_json(outer)) == outer

    def test_records_round_trip(self):
        records = records_from_rows([(1, 2), (3, None)])
        assert wal.records_from_json(wal.records_to_json(records)) == records

    def test_unsupported_type_raises(self):
        with pytest.raises(wal.JournalError):
            wal.value_to_json(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(wal.JournalError):
            wal.value_from_json({"x": []})


class TestConfigCodec:
    def test_round_trip(self):
        config = small_config(seed=99)
        restored = wal.config_from_json(wal.config_to_json(config))
        assert restored == config

    def test_broken_config_raises_journal_error(self):
        data = wal.config_to_json(small_config())
        del data["bft"]
        with pytest.raises(wal.JournalError):
            wal.config_from_json(data)


class TestWriter:
    def test_header_then_records_then_read_back(self, tmp_path):
        path = str(tmp_path / "run.wal")
        journal = wal.Journal.create(path, small_config(), SCRIPT, INPUTS)
        journal.append(wal.RUN_START, script_id="script0001")
        journal.append(wal.ATTEMPT_START, attempt=0)
        journal.close()
        records, warnings = wal.read_journal(path)
        assert warnings == []
        assert [r["kind"] for r in records] == [
            wal.HEADER,
            wal.RUN_START,
            wal.ATTEMPT_START,
        ]
        assert [r["seq"] for r in records] == [0, 1, 2]
        header = records[0]
        assert header["schema"] == wal.SCHEMA_VERSION
        assert header["script_sha256"] == wal.script_sha256(SCRIPT)
        assert wal.records_from_json(header["inputs"]["in"]) == INPUTS["in"]

    def test_append_after_close_raises(self, tmp_path):
        journal = wal.Journal.create(
            str(tmp_path / "run.wal"), small_config(), SCRIPT, INPUTS
        )
        journal.close()
        assert journal.closed
        with pytest.raises(wal.JournalError):
            journal.append(wal.RUN_START)

    def test_crash_hook_fires_after_durability(self, tmp_path):
        path = str(tmp_path / "run.wal")
        journal = wal.Journal.create(
            path, small_config(), SCRIPT, INPUTS, crash_hook=wal.crash_at(2)
        )
        journal.append(wal.RUN_START)
        with pytest.raises(wal.ControlTierCrash):
            journal.append(wal.ATTEMPT_START, attempt=0)
        # The record that triggered the crash is on disk (write-ahead).
        journal.close()
        records, _ = wal.read_journal(path)
        assert records[-1]["kind"] == wal.ATTEMPT_START

    def test_last_seq_tracks_appends(self, tmp_path):
        journal = wal.Journal.create(
            str(tmp_path / "run.wal"), small_config(), SCRIPT, INPUTS
        )
        assert journal.last_seq == 0  # the header
        journal.append(wal.RUN_START)
        assert journal.last_seq == 1

    def test_create_refuses_existing_path(self, tmp_path):
        path = str(tmp_path / "run.wal")
        wal.Journal.create(path, small_config(), SCRIPT, INPUTS).close()
        with pytest.raises(wal.JournalError, match="already exists"):
            wal.Journal.create(path, small_config(), SCRIPT, INPUTS)
        # The existing journal is untouched (no silent truncation).
        records, _ = wal.read_journal(path)
        assert records[0]["kind"] == wal.HEADER

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "run.wal")
        journal = wal.Journal.create(path, small_config(), SCRIPT, INPUTS)
        journal.append(wal.RUN_START, script_id="script0001")
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "attempt_sta')  # crash mid-append
        reopened = wal.Journal.reopen(path, next_seq=2)
        reopened.append(wal.RESUME, start_attempt=0)
        reopened.close()
        # The resume record must not merge into the partial line: the
        # journal stays readable, with the torn record simply gone.
        records, warnings = wal.read_journal(path)
        assert warnings == []
        assert [r["kind"] for r in records] == [
            wal.HEADER,
            wal.RUN_START,
            wal.RESUME,
        ]
        assert [r["seq"] for r in records] == [0, 1, 2]


class TestReader:
    def write_journal(self, tmp_path, extra_lines=()):
        path = str(tmp_path / "run.wal")
        journal = wal.Journal.create(path, small_config(), SCRIPT, INPUTS)
        journal.append(wal.RUN_START, script_id="script0001")
        journal.close()
        if extra_lines:
            with open(path, "a") as handle:
                for line in extra_lines:
                    handle.write(line)
        return path

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = self.write_journal(
            tmp_path, ['{"kind": "attempt_start", "se']
        )
        records, warnings = wal.read_journal(path)
        assert [r["kind"] for r in records] == [wal.HEADER, wal.RUN_START]
        assert any("truncated" in w for w in warnings)

    def test_corrupt_middle_raises(self, tmp_path):
        path = self.write_journal(
            tmp_path,
            ['garbage not json\n', '{"kind": "attempt_start", "seq": 2}\n'],
        )
        with pytest.raises(wal.JournalError, match="corrupt"):
            wal.read_journal(path)

    def test_seq_gap_raises(self, tmp_path):
        path = self.write_journal(
            tmp_path, ['{"kind": "attempt_start", "seq": 5}\n']
        )
        with pytest.raises(wal.JournalError, match="seq gap"):
            wal.read_journal(path)

    def test_tampered_script_raises(self, tmp_path):
        path = self.write_journal(tmp_path)
        with open(path) as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        header["script"] = header["script"] + "-- tampered\n"
        lines[0] = json.dumps(header, sort_keys=True) + "\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(wal.JournalError, match="hash mismatch"):
            wal.read_journal(path)

    def test_wrong_schema_raises(self, tmp_path):
        path = self.write_journal(tmp_path)
        with open(path) as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        header["schema"] = "repro.journal/v999"
        lines[0] = json.dumps(header, sort_keys=True) + "\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(wal.JournalError, match="schema"):
            wal.read_journal(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.wal"
        path.write_text("")
        with pytest.raises(wal.JournalError, match="empty"):
            wal.read_journal(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(wal.JournalError):
            wal.read_journal(str(tmp_path / "absent.wal"))

    @pytest.mark.parametrize("line", ["null\n", "[1]\n", '"header"\n', "7\n"])
    def test_line_that_is_json_but_not_an_object_raises(self, tmp_path, line):
        """Valid JSON is not enough: every record is an object.  As the
        header, in the middle or as the last line — that is not what a
        torn append looks like — it names the record and fails closed."""
        path = self.write_journal(tmp_path, [line])
        with pytest.raises(wal.JournalError, match="corrupt at record 2"):
            wal.read_journal(path)
        alone = tmp_path / "alone.wal"
        alone.write_text(line)
        with pytest.raises(wal.JournalError, match="corrupt at record 0"):
            wal.read_journal(str(alone))

    @pytest.mark.parametrize("field", ["config", "inputs", "block_bytes"])
    def test_header_lacking_a_field_recovery_needs_raises(self, tmp_path, field):
        """Schema and script hash can both check out on a header that
        recovery cannot rebuild a deployment from."""
        from repro.core.recovery import load_inputs, resume_run

        path = self.write_journal(tmp_path)
        with open(path) as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        del header[field]
        lines[0] = json.dumps(header, sort_keys=True) + "\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        for reader in (wal.read_journal, resume_run, load_inputs):
            with pytest.raises(wal.JournalError, match=f"record 0.*{field}"):
                reader(path)
