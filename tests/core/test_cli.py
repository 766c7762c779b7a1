"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_cell, load_csv, main

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""


@pytest.fixture
def workspace(tmp_path):
    script = tmp_path / "job.pig"
    script.write_text(SCRIPT)
    csv = tmp_path / "data.csv"
    csv.write_text("1,10\n1,20\n2,\n2,30\n")
    return script, csv


class TestCsvParsing:
    def test_cell_types(self):
        assert _parse_cell("42") == 42
        assert _parse_cell("4.5") == 4.5
        assert _parse_cell("abc") == "abc"
        assert _parse_cell("") is None
        assert _parse_cell("  7 ") == 7

    def test_load_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,a\n2,\n\n3,c\n")
        records = load_csv(str(path))
        assert len(records) == 3
        assert records[1].fields == (2, None)


class TestRunCommand:
    def test_assured_run(self, workspace, capsys):
        script, csv = workspace
        code = main(
            ["run", str(script), "--input", f"in={csv}", "--nodes", "8",
             "--timeout", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "assured   : True" in out
        assert "out (2 records)" in out

    def test_plain_run(self, workspace, capsys):
        script, csv = workspace
        code = main(
            ["run", str(script), "--input", f"in={csv}", "--mode", "plain",
             "--nodes", "8"]
        )
        assert code == 0
        assert "assured   : False" in capsys.readouterr().out

    def test_single_mode(self, workspace, capsys):
        script, csv = workspace
        assert main(
            ["run", str(script), "--input", f"in={csv}", "--mode", "single",
             "--nodes", "8"]
        ) == 0

    def test_bad_input_spec(self, workspace):
        script, csv = workspace
        with pytest.raises(SystemExit):
            main(["run", str(script), "--input", "no-equals-sign"])

    def test_output_truncation(self, workspace, capsys):
        script, csv = workspace
        main(
            ["run", str(script), "--input", f"in={csv}", "--nodes", "8",
             "--show-output", "1"]
        )
        assert "1 more" in capsys.readouterr().out


EXPLAINED = """Logical plan:
[0] load 'in' (A)
[1] filter (B) <- [0]
[2] group (G) <- [1]
[3] foreach (C) <- [2]
[4] store 'out' <- [3]

Input ratios:
  [0] load 'in'                      1.000
  [1] filter                         1.000
  [2] group                          1.000
  [3] foreach                        1.000
  [4] store 'out'                    1.000

Verification points:
  [3] foreach (score 4.00)

Job graph:
#0 G+C@0: [in] -group-> out
"""


class TestExplainCommand:
    def test_explain_shows_plan_and_jobs(self, workspace, capsys):
        script, csv = workspace
        code = main(["explain", str(script), "--input", f"in={csv}"])
        assert code == 0
        assert capsys.readouterr().out == EXPLAINED


class TestJournalAndResume:
    def run_args(self, workspace, *extra):
        script, csv = workspace
        return ["run", str(script), "--input", f"in={csv}", "--nodes", "8",
                "--timeout", "30", *extra]

    def test_journaled_run_then_resume_completed(self, workspace, tmp_path, capsys):
        journal = tmp_path / "run.wal"
        code = main(self.run_args(workspace, "--journal", str(journal)))
        assert code == 0
        assert journal.exists()
        assert "journal   : " in capsys.readouterr().out

        code = main(["resume", str(journal)])
        out = capsys.readouterr().out
        assert code == 0
        assert "journal   : complete" in out
        assert "assured   : True" in out

    def test_resume_after_sigkill_byte_identical(self, workspace, tmp_path):
        """Real crash: the run SIGKILLs itself at a journaled decision
        point (REPRO_JOURNAL_KILL_AT seam), then `repro resume` must
        republish exactly the uninterrupted run's outputs."""
        import os
        import subprocess
        import sys

        import repro

        script, csv = workspace
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        base = [sys.executable, "-m", "repro", "run", str(script),
                "--input", f"in={csv}", "--nodes", "8", "--timeout", "30"]

        ref_json = tmp_path / "ref.json"
        proc = subprocess.run(
            base + ["--journal", str(tmp_path / "ref.wal"),
                    "--outputs-json", str(ref_json)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

        crash_wal = tmp_path / "crash.wal"
        proc = subprocess.run(
            base + ["--journal", str(crash_wal)],
            env=dict(env, REPRO_JOURNAL_KILL_AT="5"),
            capture_output=True, text=True,
        )
        assert proc.returncode == -9  # SIGKILL, not a clean exit

        resumed_json = tmp_path / "resumed.json"
        assert main(
            ["resume", str(crash_wal), "--outputs-json", str(resumed_json)]
        ) == 0
        assert resumed_json.read_bytes() == ref_json.read_bytes()

    def test_journaled_run_reads_each_csv_once(
        self, workspace, tmp_path, monkeypatch
    ):
        import repro.cli

        read = []

        def counted(path, widths=()):
            read.append(path)
            return load_csv(path, widths)

        monkeypatch.setattr(repro.cli, "load_csv", counted)
        journal = str(tmp_path / "run.wal")
        assert main(self.run_args(workspace, "--journal", journal)) == 0
        assert read == [str(workspace[1])]

    def test_journal_requires_assured_mode(self, workspace, tmp_path):
        with pytest.raises(SystemExit, match="assured"):
            main(self.run_args(
                workspace, "--mode", "plain",
                "--journal", str(tmp_path / "x.wal"),
            ))

    def test_resume_rejects_garbage_with_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wal"
        bad.write_text("this is not a journal\n")
        assert main(["resume", str(bad)]) == 2
        assert "repro resume:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, value",
        [
            (("config", "cluster", "num_nodes"), 0),
            (("config", "bft", "f"), -1),
            (("block_bytes",), "x"),
            (("inputs",), {"in": 5}),
            (("block_bytes",), 0),
            (("script",), 5),
            (("inputs",), {"in": [{"t": 5}]}),
        ],
        ids=["no-nodes", "negative-f", "text-block-bytes", "rowless-input",
             "zero-block-bytes", "script-not-text", "object-row"],
    )
    def test_resume_rejects_a_bad_header_with_exit_2(
        self, workspace, tmp_path, capsys, where, value
    ):
        """A journal cut after record 4, as a kill there leaves it, with
        one header value edited: one ``repro resume:`` line, exit 2, and
        the journal left as it was."""
        journal = tmp_path / "run.wal"
        assert main(self.run_args(workspace, "--journal", str(journal))) == 0
        header, *records = journal.read_text().splitlines(keepends=True)[:5]
        header = json.loads(header)
        *path, key = where
        container = header
        for name in path:
            container = container[name]
        container[key] = value
        journal.write_text(json.dumps(header, sort_keys=True) + "\n" + "".join(records))
        before = journal.read_bytes()
        capsys.readouterr()
        assert main(["resume", str(journal)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro resume: journal header ")
        assert journal.read_bytes() == before

    def test_exhaustion_exits_3_with_diagnostic(self, workspace, tmp_path, capsys):
        script, csv = workspace
        journal = tmp_path / "exhausted.wal"
        code = main(
            ["run", str(script), "--input", f"in={csv}", "--nodes", "8",
             "--timeout", "0.05", "--journal", str(journal)]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "rerun escalation exhausted" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

        # Resuming the (complete) exhausted journal reports the same
        # explicit verdict and exit code.
        assert main(["resume", str(journal)]) == 3
        assert "rerun escalation exhausted" in capsys.readouterr().err

    def test_outputs_json_is_deterministic(self, workspace, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.run_args(workspace, "--outputs-json", str(a))) == 0
        assert main(self.run_args(workspace, "--outputs-json", str(b))) == 0
        assert a.read_bytes() == b.read_bytes()
