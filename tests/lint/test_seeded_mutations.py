"""Seeded mutations on a copy of the real tree: deleting the audit
record of the one fault recorder, dropping the tenant attribution of
the eviction record, or injecting a wall clock into a digest path must
each be caught by the deep lint."""

import shutil
from pathlib import Path

import pytest

from repro.lint.flow.deep import deep_lint

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


def deep_findings(tree: Path, rule: str):
    report = deep_lint([str(tree)])
    return [d for d in report.findings if d.rule == rule]


def test_mutation_unaudited_fault_recorder_trips_aud001(real_tree):
    # Moving the one fault recorder behind `self.resources` must not
    # have blinded the attribution check: it still mutates suspicion and
    # the fault analyzer, so deleting its audit record is a finding —
    # reached from the generator through an attribute-typed call.
    path = real_tree / "core" / "resource_manager.py"
    source = path.read_text()
    start = source.index("            self.audit.record(\n                self.loop.now,\n                FAULT,")
    end = source.index("        self.suspicion.record_fault(nodes)")
    path.write_text(source[:start] + source[end:])
    findings = [
        d for d in deep_findings(real_tree, "AUD001") if "'record_fault'" in d.message
    ]
    assert findings, deep_findings(real_tree, "AUD001")
    assert findings[0].chain[0].endswith("._assured_steps"), findings[0].chain


def test_mutation_unattributed_eviction_record_trips_aud001(real_tree):
    # The eviction/quarantine audit record names the tenant whose
    # traffic triggered it; dropping the attribution is a finding.
    mutate(
        real_tree,
        "core/resource_manager.py",
        "                    jobs=state.jobs_executed,\n"
        "                    **self.controller.audit_context,\n"
        "                )\n",
        "                    jobs=state.jobs_executed,\n                )\n",
    )
    findings = deep_findings(real_tree, "AUD001")
    assert any("'enforce'" in d.message for d in findings), findings


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
    findings = deep_findings(real_tree, "FLOW001")
    assert any(
        d.path.endswith("hashing.py") and "time.time" in d.message
        for d in findings
    ), findings
