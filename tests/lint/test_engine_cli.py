"""Engine + CLI behaviour: file walking, the clean-tree gate, exit
codes, JSON output and the --plan mode."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.engine import iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def repro_cli(*argv, cwd=REPO_ROOT):
    env_src = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


def test_clean_tree_gate():
    """The repo's own sources must stay lint-clean — the CI invariant."""
    report = lint_paths([str(SRC_REPRO)])
    assert report.findings == [], "\n" + report.render()
    assert report.exit_code() == 0
    assert report.files_checked > 50
    # The FLOW rules ran too: their waivers on the two __hash__ methods
    # were used, not reported unused.
    waived = sorted(
        (d.rule, d.path.rsplit("/", 2)[-2]) for d in report.waived
        if d.rule.startswith("FLOW")
    )
    assert waived == [("FLOW003", "common"), ("FLOW003", "dataflow")]


@pytest.mark.parametrize("rule", ["DET001", "FLOW001"])
def test_cli_select_on_clean_tree(rule):
    # A selection judges only the waivers of the rules that ran: the
    # DET002 and FLOW003 waivers in the tree are not "unused" here.
    result = repro_cli("lint", "--select", rule, "src/repro")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 findings" in result.stdout


def test_iter_python_files_sorted_and_skips_pycache(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.py").write_text("x = 1\n")
    names = [p.name for p in iter_python_files([str(tmp_path)])]
    assert names == ["a.py", "b.py"]


def test_non_python_path_rejected(tmp_path):
    target = tmp_path / "notes.txt"
    target.write_text("hello\n")
    with pytest.raises(FileNotFoundError):
        iter_python_files([str(target)])


def test_cli_exit_codes(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n\nrng = random.Random(1)\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")

    result = repro_cli("lint", str(dirty))
    assert result.returncode == 1
    assert "DET001" in result.stdout

    result = repro_cli("lint", str(clean))
    assert result.returncode == 0
    assert "0 findings" in result.stdout


def test_cli_json_format(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\nnow = time.time()\n")
    result = repro_cli("lint", "--format", "json", str(dirty))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    (finding,) = payload["findings"]
    assert finding["rule"] == "DET002"
    assert finding["line"] == 3


def test_cli_select(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random, time\n\nr = random.Random(1)\nt = time.time()\n")
    result = repro_cli("lint", "--select", "DET002", str(dirty))
    assert "DET002" in result.stdout
    assert "DET001" not in result.stdout


def test_cli_list_rules():
    result = repro_cli("lint", "--list-rules")
    assert result.returncode == 0
    for rule_id in ("DET001", "DET002", "DET003", "DET004"):
        assert rule_id in result.stdout


def test_cli_plan_mode_reports_defects(tmp_path):
    script = tmp_path / "bad.pig"
    script.write_text(
        "a = LOAD 'in' AS (x:int);\n"
        "b = FILTER a BY x > 0;\n"
        "STORE a INTO 'out';\n"
    )
    result = repro_cli("lint", "--plan", str(script))
    assert result.returncode == 1
    assert "PLAN005" in result.stdout


def test_cli_plan_mode_clean_script(tmp_path):
    script = tmp_path / "good.pig"
    script.write_text(
        "a = LOAD 'in' AS (x:int);\n"
        "b = FILTER a BY x > 0;\n"
        "STORE b INTO 'out';\n"
    )
    result = repro_cli("lint", "--plan", str(script))
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_plan_mode_bad_replication(tmp_path):
    script = tmp_path / "good.pig"
    script.write_text("a = LOAD 'in' AS (x:int);\nSTORE a INTO 'out';\n")
    result = repro_cli("lint", "--plan", str(script), "-f", "1", "-r", "5")
    assert result.returncode == 1
    assert "PLAN007" in result.stdout


def test_cli_plan_mode_parse_error(tmp_path):
    script = tmp_path / "broken.pig"
    script.write_text("a = LOAD\n")
    result = repro_cli("lint", "--plan", str(script))
    assert result.returncode == 1
    assert "PLAN000" in result.stdout


def test_cli_plan_mode_unknown_bag_field(tmp_path):
    script = tmp_path / "bag.pig"
    script.write_text(
        "e = LOAD 'in' AS (user:int, follower:int);\n"
        "g = GROUP e BY user;\n"
        "m = FOREACH g GENERATE group, MAX(e.nosuch);\n"
        "STORE m INTO 'out';\n"
    )
    result = repro_cli("lint", "--plan", str(script))
    assert result.returncode == 1
    assert "PLAN003" in result.stdout and "nosuch" in result.stdout
