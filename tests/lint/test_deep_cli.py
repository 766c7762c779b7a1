"""CLI behaviour of the whole-program FLOW rules in `repro lint`: rule
listing and selection, and the output formats' symbol and chain."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def repro_cli(*argv, cwd=REPO_ROOT):
    env_src = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


DIRTY = '''\
import hashlib
import time


def stamp():
    return time.time()


def digest(data):
    h = hashlib.sha256()
    h.update(str(stamp()).encode())
    return h
'''


def write_fixture(tmp_path, source=DIRTY):
    pkg = tmp_path / "proj"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "app.py").write_text(source)
    return pkg


def test_list_rules_includes_deep_catalogue():
    result = repro_cli("lint", "--list-rules")
    assert result.returncode == 0
    for rule_id in ("FLOW001", "FLOW004"):
        assert rule_id in result.stdout
    assert "(whole-program)" in result.stdout
    # The journal/ledger record table replaced the WAL-coverage rules,
    # and the audit log's context replaced the attribution rule.
    assert "WAL00" not in result.stdout
    assert "AUD00" not in result.stdout


def test_unknown_deep_rule_rejected(tmp_path):
    pkg = write_fixture(tmp_path)
    result = repro_cli("lint", "--select", "FLOW999", str(pkg))
    assert result.returncode != 0
    assert "FLOW999" in result.stderr


def test_select_filters_deep_rules(tmp_path):
    pkg = write_fixture(tmp_path)
    result = repro_cli("lint", "--select", "FLOW001", str(pkg))
    assert result.returncode == 1
    assert "FLOW001" in result.stdout
    # the per-file DET002 (time.time) is excluded by the selection
    assert "DET002" not in result.stdout

    result = repro_cli("lint", "--select", "FLOW003", str(pkg))
    assert result.returncode == 0, result.stdout


def test_json_output_carries_symbol_and_chain(tmp_path):
    pkg = write_fixture(tmp_path)
    result = repro_cli(
        "lint", "--select", "FLOW001", str(pkg), "--format", "json"
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    (finding,) = [f for f in payload["findings"] if not f["waived"]]
    assert finding["rule"] == "FLOW001"
    assert finding["symbol"] == "proj.app.digest"
    assert finding["chain"] == ["proj.app.digest", "proj.app.stamp"]


def test_github_format_emits_annotations(tmp_path):
    pkg = write_fixture(tmp_path)
    result = repro_cli(
        "lint", "--select", "FLOW001", str(pkg), "--format", "github"
    )
    assert result.returncode == 1
    assert "::error file=" in result.stdout
    assert "title=FLOW001" in result.stdout


