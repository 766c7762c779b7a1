"""`repro serve`: per-tenant SLO status in the service summary, the
summary of a resumed service, and usage errors that fail closed."""

import json
from pathlib import Path

import pytest

from repro.cli import main

TENANTS = Path(__file__).resolve().parents[2] / "examples" / "tenants.json"

BASE = ["serve", "--tenants", "2", "--jobs", "1", "--faulty-tenants", "0",
        "--rows", "10", "--bench"]


def summary_from(capsys):
    return json.loads(capsys.readouterr().out)


class TestServeSlo:
    def test_slo_flag_adds_per_tenant_status_and_alerts(self, capsys):
        assert main(BASE + ["--slo"]) == 0
        summary = summary_from(capsys)
        assert "alerts" in summary
        for tenant, row in summary["tenants"].items():
            assert row["slo"]["status"] in ("ok", "breached"), tenant
            assert isinstance(row["slo"]["alerts"], list)

    def test_without_slo_flag_summary_is_unchanged(self, capsys):
        assert main(BASE) == 0
        summary = summary_from(capsys)
        assert "alerts" not in summary
        for row in summary["tenants"].values():
            assert "slo" not in row

    def test_slo_output_is_deterministic(self, capsys):
        assert main(BASE + ["--slo"]) == 0
        first = capsys.readouterr().out
        assert main(BASE + ["--slo"]) == 0
        assert capsys.readouterr().out == first

    def test_faulty_tenant_breaches(self, capsys):
        args = ["serve", "--tenants", "2", "--jobs", "2",
                "--faulty-tenants", "1", "--rows", "10", "--bench", "--slo"]
        main(args)  # faulty traffic may fail its own runs; exit code varies
        summary = summary_from(capsys)
        statuses = {row["slo"]["status"] for row in summary["tenants"].values()}
        assert "breached" in statuses

    def test_human_output_prints_slo_section(self, capsys):
        assert main(["serve", "--tenants", "1", "--jobs", "1",
                     "--faulty-tenants", "0", "--rows", "10", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "slo       :" in out


class TestServeResumeFailsClosed:
    """A ledger that cannot be resumed is a usage error (exit 2, one
    ``repro serve:`` line), never a traceback."""

    def check(self, capsys, ledger_path):
        assert main(["serve", "--resume", "--ledger", str(ledger_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro serve: ")
        assert "Traceback" not in captured.err

    def test_missing_ledger(self, capsys, tmp_path):
        self.check(capsys, tmp_path / "absent.ledger")

    def test_garbled_first_line(self, capsys, tmp_path):
        path = tmp_path / "garbled.ledger"
        path.write_text('{"kind": "header", "sche\n')
        self.check(capsys, path)

    def test_first_line_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "null.ledger"
        path.write_text("null\n")
        self.check(capsys, path)


class TestServeResumeSummary:
    def test_resumed_summary_equals_uninterrupted(self, capsys, tmp_path):
        """The resume reads the faulty tenants from the trace its ledger
        embeds, so it splits honest from faulty runs as the
        uninterrupted run does."""
        full = tmp_path / "full.ledger"
        assert main(["serve", str(TENANTS), "--ledger", str(full), "--bench"]) == 0
        uninterrupted = summary_from(capsys)
        # The durable prefix a control-tier death after record 30 leaves.
        crashed = tmp_path / "crashed.ledger"
        crashed.write_bytes(b"".join(full.read_bytes().splitlines(True)[:31]))
        assert main(["serve", "--resume", "--ledger", str(crashed), "--bench"]) == 0
        resumed = summary_from(capsys)
        assert resumed["resumed_prefix"] == 31
        assert crashed.read_bytes() == full.read_bytes()
        for key in ("ledger", "resumed_prefix"):
            del uninterrupted[key], resumed[key]
        assert resumed == uninterrupted
        assert resumed["honest_runs"] < resumed["admitted"]


class TestSyntheticFlagsFailClosed:
    @pytest.mark.parametrize(
        "flags, says",
        [
            (["--tenants", "0"], "tenants=0 must be positive"),
            (["--faulty-tenants", "5"], "faulty_tenants=5 outside [0, 3]"),
        ],
    )
    def test_out_of_range_flag_is_one_line_and_exit_2(self, capsys, flags, says):
        assert main(["serve", *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"repro serve: {says}\n"
