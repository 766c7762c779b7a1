"""CLI behaviour of `repro lint --deep`: the clean-tree gate against
the committed baseline, rule listing/selection, output formats, and
the baseline ratchet (new findings fail, fixed findings go stale until
--update-baseline shrinks the file)."""

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


def test_deep_clean_tree_gate():
    """The repo's own sources must pass --deep against the committed
    baseline — the CI invariant for the deep-lint job."""
    result = repro_cli("lint", "--deep", "src/repro")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 findings" in result.stdout


def test_list_rules_includes_deep_catalogue():
    result = repro_cli("lint", "--list-rules")
    assert result.returncode == 0
    for rule_id in ("FLOW001", "FLOW004"):
        assert rule_id in result.stdout
    assert "(deep)" in result.stdout
    # The journal/ledger record table replaced the WAL-coverage rules,
    # and the audit log's context replaced the attribution rule.
    assert "WAL00" not in result.stdout
    assert "AUD00" not in result.stdout


def test_deep_rule_in_select_requires_deep_flag(tmp_path):
    pkg = write_fixture(tmp_path)
    result = repro_cli("lint", "--select", "FLOW001", str(pkg))
    assert result.returncode != 0
    assert "--deep" in result.stderr


def test_unknown_deep_rule_rejected(tmp_path):
    pkg = write_fixture(tmp_path)
    result = repro_cli(
        "lint", "--deep", "--select", "FLOW999", str(pkg),
        "--baseline", str(tmp_path / "b.json"),
    )
    assert result.returncode != 0
    assert "FLOW999" in result.stderr


def test_select_filters_deep_rules(tmp_path):
    pkg = write_fixture(tmp_path)
    baseline = str(tmp_path / "b.json")  # missing file = empty baseline
    result = repro_cli(
        "lint", "--deep", "--select", "FLOW001", str(pkg), "--baseline", baseline
    )
    assert result.returncode == 1
    assert "FLOW001" in result.stdout
    # layer-1 DET002 (time.time) is excluded by the selection
    assert "DET002" not in result.stdout

    result = repro_cli(
        "lint", "--deep", "--select", "FLOW003", str(pkg), "--baseline", baseline
    )
    assert result.returncode == 0, result.stdout


def test_json_output_carries_symbol_and_chain(tmp_path):
    pkg = write_fixture(tmp_path)
    result = repro_cli(
        "lint", "--deep", "--select", "FLOW001", str(pkg),
        "--format", "json", "--baseline", str(tmp_path / "b.json"),
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
        "lint", "--deep", "--select", "FLOW001", str(pkg),
        "--format", "github", "--baseline", str(tmp_path / "b.json"),
    )
    assert result.returncode == 1
    assert "::error file=" in result.stdout
    assert "title=FLOW001" in result.stdout


def test_baseline_ratchet_full_cycle(tmp_path):
    pkg = write_fixture(tmp_path)
    baseline = str(tmp_path / "baseline.json")

    # 1. new finding, empty baseline -> fail
    result = repro_cli("lint", "--deep", str(pkg), "--baseline", baseline)
    assert result.returncode == 1
    assert "FLOW001" in result.stdout

    # 2. accept current findings into the baseline
    result = repro_cli(
        "lint", "--deep", str(pkg), "--baseline", baseline, "--update-baseline"
    )
    assert result.returncode == 0
    assert "updated" in result.stdout
    entries = json.loads(Path(baseline).read_text())
    assert entries["schema"] == "repro.lint-baseline/v1"
    assert len(entries["entries"]) >= 1

    # 3. same findings, baselined -> pass (shown as waived)
    result = repro_cli(
        "lint", "--deep", str(pkg), "--baseline", baseline, "--show-waived"
    )
    assert result.returncode == 0, result.stdout
    assert "baselined" in result.stdout

    # 4. a NEW finding not in the baseline still fails
    (pkg / "app.py").write_text(
        DIRTY + "\n\ndef writer(journal):\n"
        "    import random\n"
        "    journal.append('x', v=random.random())\n"
    )
    result = repro_cli("lint", "--deep", str(pkg), "--baseline", baseline)
    assert result.returncode == 1
    assert "FLOW002" in result.stdout

    # 5. fixing everything leaves stale entries -> still fails, loudly
    (pkg / "app.py").write_text("def add(a, b):\n    return a + b\n")
    result = repro_cli("lint", "--deep", str(pkg), "--baseline", baseline)
    assert result.returncode == 1
    assert "stale baseline entry" in result.stdout
    assert "--update-baseline" in result.stdout

    # 6. shrinking the baseline restores a clean exit
    result = repro_cli(
        "lint", "--deep", str(pkg), "--baseline", baseline, "--update-baseline"
    )
    assert result.returncode == 0
    entries = json.loads(Path(baseline).read_text())
    assert entries["entries"] == []
    result = repro_cli("lint", "--deep", str(pkg), "--baseline", baseline)
    assert result.returncode == 0, result.stdout


def test_committed_baseline_is_empty():
    """The repo ships a zero-debt baseline: every deep finding in the
    tree has been fixed or waived with a reason, not baselined away."""
    payload = json.loads((REPO_ROOT / "LINT_BASELINE.json").read_text())
    assert payload["schema"] == "repro.lint-baseline/v1"
    assert payload["entries"] == []
