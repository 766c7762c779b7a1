"""Interprocedural taint (FLOW001–FLOW004): sources reach assured
sinks through the call graph, chains are reported, and waivers behave
— DET waivers sanction the source, FLOW waivers waive the finding."""

from pathlib import Path

from repro.lint import lint_paths
from repro.lint.flow.callgraph import build_project
from repro.lint.flow.taint import run_taint
from repro.lint.rules import FLOW_RULES

CLOCK_TO_DIGEST = '''\
import hashlib
import time


def leaf_clock():
    return time.time()


def mid():
    return leaf_clock()


def compute_digest(data):
    h = hashlib.sha256()
    h.update(str(mid()).encode())
    return h
'''

ENTROPY_TO_JOURNAL = '''\
import random


def jitter():
    return random.random()


def writer(journal):
    journal.append("decision", value=jitter())
'''

IDENTITY_TO_AUDIT = '''\
import os


def env_read():
    return os.environ["HOSTNAME"]


def note(audit, now):
    audit.record(now, "placement", "s0", host=env_read())
'''

FLOAT_TO_DIGEST = '''\
import hashlib


def fold(rows):
    total = 0.0
    for row in rows:
        total += row * 0.5
    return total


def summarize(rows):
    return hashlib.sha256(str(fold(rows)).encode()).hexdigest()
'''


def graph_for(tmp_path, source, name="app.py"):
    pkg = tmp_path / "proj"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / name).write_text(source)
    return build_project([Path(pkg / "__init__.py"), Path(pkg / name)])


def findings(tmp_path, source, rule):
    diagnostics = run_taint(graph_for(tmp_path, source))
    return [d for d in diagnostics if d.rule == rule]


def test_flow001_wall_clock_reaches_digest_with_chain(tmp_path):
    (finding,) = findings(tmp_path, CLOCK_TO_DIGEST, "FLOW001")
    assert finding.symbol == "proj.app.compute_digest"
    assert finding.chain == (
        "proj.app.compute_digest",
        "proj.app.mid",
        "proj.app.leaf_clock",
    )
    assert "time.time" in finding.message
    assert "compute_digest -> mid -> leaf_clock" in finding.message


def test_flow002_entropy_reaches_journal_append(tmp_path):
    (finding,) = findings(tmp_path, ENTROPY_TO_JOURNAL, "FLOW002")
    assert finding.symbol == "proj.app.writer"
    assert "random.random" in finding.message
    assert "journal-append" in finding.message


def test_flow003_environ_reaches_audit_record(tmp_path):
    (finding,) = findings(tmp_path, IDENTITY_TO_AUDIT, "FLOW003")
    assert finding.symbol == "proj.app.note"
    assert "os.environ" in finding.message
    assert "audit-record" in finding.message


def test_flow004_float_accumulation_in_unhelpfully_named_helper(tmp_path):
    # Layer 1's DET004 only looks at digest-*named* functions; `fold`
    # is invisible to it but reachable from the digest sink.
    (finding,) = findings(tmp_path, FLOAT_TO_DIGEST, "FLOW004")
    assert finding.symbol == "proj.app.fold"
    assert finding.chain[0] == "proj.app.summarize"
    assert "float" in finding.message


def test_clean_project_has_no_findings(tmp_path):
    clean = "def add(a, b):\n    return a + b\n"
    assert run_taint(graph_for(tmp_path, clean)) == []


def test_det_waiver_sanctions_the_source(tmp_path):
    # A layer-1 waiver at the source line is an argued-for exception
    # (e.g. the telemetry profile path); the FLOW pass must not re-taint
    # every caller that reaches it.
    waived = CLOCK_TO_DIGEST.replace(
        "    return time.time()",
        "    return time.time()  # lint: allow DET002 profile timestamps only",
    )
    diagnostics = run_taint(graph_for(tmp_path, waived))
    assert [d for d in diagnostics if d.rule == "FLOW001"] == []


def test_flow_waiver_waives_the_finding_not_the_source(tmp_path):
    # A FLOW waiver on the *sink* line goes through the normal waiver
    # machinery: the finding is kept but marked waived, and the waiver
    # counts as used (no WAIVE002).
    waived = CLOCK_TO_DIGEST.replace(
        "    h = hashlib.sha256()",
        "    h = hashlib.sha256()  # lint: allow FLOW001 timestamp never enters update()",
    )
    pkg = tmp_path / "proj"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "app.py").write_text(waived)
    report = lint_paths([str(pkg)], select=list(FLOW_RULES))
    assert [d.rule for d in report.findings] == []
    assert any(d.rule == "FLOW001" and d.waived for d in report.diagnostics)


def test_unused_flow_waiver_is_reported(tmp_path):
    pkg = tmp_path / "proj"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "app.py").write_text(
        "def add(a, b):  # lint: allow FLOW001 nothing here\n"
        "    return a + b\n"
    )
    report = lint_paths([str(pkg)], select=list(FLOW_RULES))
    assert [d.rule for d in report.findings] == ["WAIVE002"]


def test_rng_registry_module_is_exempt_for_flow002(tmp_path):
    # The one sanctioned home for entropy plumbing mirrors layer 1.
    pkg = tmp_path / "repro" / "common"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "rng.py").write_text(ENTROPY_TO_JOURNAL)
    graph = build_project(
        [
            Path(tmp_path / "repro" / "__init__.py"),
            Path(pkg / "__init__.py"),
            Path(pkg / "rng.py"),
        ]
    )
    assert [d for d in run_taint(graph) if d.rule == "FLOW002"] == []
