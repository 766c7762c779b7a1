"""Seeded mutation on a copy of the real tree: a wall clock injected
into a digest path must be caught by the FLOW rules."""

import shutil
from pathlib import Path

import pytest

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


@pytest.fixture()
def real_tree(tmp_path):
    target = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, target, ignore=shutil.ignore_patterns("__pycache__"))
    return target


def mutate(tree: Path, rel: str, old: str, new: str) -> None:
    path = tree / rel
    source = path.read_text()
    assert old in source, f"mutation anchor missing from {rel}: {old!r}"
    path.write_text(source.replace(old, new))


def flow_findings(tree: Path, rule: str):
    report = lint_paths([str(tree)], select=[rule])
    return [d for d in report.findings if d.rule == rule]


def test_mutation_wall_clock_in_digest_path_trips_flow001(real_tree):
    mutate(
        real_tree,
        "common/hashing.py",
        "import hashlib\n",
        "import hashlib\nimport time\n",
    )
    mutate(
        real_tree,
        "common/hashing.py",
        '    """SHA-256 of a record\'s canonical encoding."""\n',
        '    """SHA-256 of a record\'s canonical encoding."""\n'
        "    _stamp = time.time()\n",
    )
    findings = flow_findings(real_tree, "FLOW001")
    assert any(
        d.path.endswith("hashing.py") and "time.time" in d.message
        for d in findings
    ), findings
