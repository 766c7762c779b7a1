"""WAL/replay coverage (WAL001–WAL003) on fixture surfaces, plus the
seeded-mutation contract on the real tree: deleting a replay branch,
reading a replay-only field, dropping a field from the one
``attempt_end`` append, deleting the audit record of the one fault
recorder, or injecting a wall clock into a digest path must each be
caught."""

import shutil
from pathlib import Path

import pytest

from repro.lint.flow.callgraph import build_project
from repro.lint.flow.deep import deep_lint
from repro.lint.flow.walcheck import discover_surfaces, run_walcheck

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"

WAL_MODULE = '''\
HEADER = "header"
PUT = "put"
MARK = "mark"
DEL = "del_marker"

#: not a kind: value doesn't look like one
SCHEMA = "proj.wal/v1"


class Journal:
    def append(self, kind, **fields):
        return {"kind": kind}
'''

REPLAY_OK = '''\
from proj import wal

REPLAY_IGNORED = frozenset({wal.MARK})


def writer(journal):
    journal.append(wal.HEADER, schema="v1")
    journal.append(wal.PUT, key="k", value="v")
    journal.append(wal.MARK, note="n")


def resume(records):
    if records[0]["kind"] != wal.HEADER:
        raise ValueError("bad header")
    schema = records[0]["schema"]
    for record in records[1:]:
        kind = record["kind"]
        if kind == wal.PUT:
            value = record["value"]
    return schema, value
'''


def graph_for(tmp_path, replay_source, wal_source=WAL_MODULE):
    pkg = tmp_path / "proj"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "wal.py").write_text(wal_source)
    (pkg / "replay.py").write_text(replay_source)
    return build_project(
        [Path(pkg / "__init__.py"), Path(pkg / "wal.py"), Path(pkg / "replay.py")]
    )


def rules_of(diagnostics):
    return sorted(d.rule for d in diagnostics)


def test_surface_discovery(tmp_path):
    graph = graph_for(tmp_path, REPLAY_OK)
    (surface,) = discover_surfaces(graph)
    assert surface.module == "proj.wal"
    assert surface.kinds == {
        "HEADER": "header",
        "PUT": "put",
        "MARK": "mark",
        "DEL": "del_marker",
    }
    assert "SCHEMA" not in surface.kinds  # value shape filtered it out


def test_covered_surface_is_clean(tmp_path):
    graph = graph_for(tmp_path, REPLAY_OK)
    assert run_walcheck(graph) == []


def test_wal001_unhandled_undeclared_kind(tmp_path):
    # Drop MARK from the REPLAY_IGNORED declaration: appended, no
    # handler, no declaration -> WAL001 anchored at the append site.
    source = REPLAY_OK.replace(
        "REPLAY_IGNORED = frozenset({wal.MARK})\n", ""
    )
    graph = graph_for(tmp_path, source)
    diagnostics = run_walcheck(graph)
    assert rules_of(diagnostics) == ["WAL001"]
    (finding,) = diagnostics
    assert "'mark'" in finding.message
    assert finding.path.endswith("replay.py")


def test_wal001_deleted_replay_branch(tmp_path):
    source = REPLAY_OK.replace(
        '        if kind == wal.PUT:\n            value = record["value"]\n',
        "        pass\n",
    ).replace("return schema, value", "return schema")
    diagnostics = run_walcheck(graph_for(tmp_path, source))
    assert any(
        d.rule == "WAL001" and "'put'" in d.message for d in diagnostics
    )


def test_wal002_replay_only_field(tmp_path):
    source = REPLAY_OK.replace('record["value"]', 'record["checksum"]')
    diagnostics = run_walcheck(graph_for(tmp_path, source))
    assert rules_of(diagnostics) == ["WAL002"]
    (finding,) = diagnostics
    assert "'checksum'" in finding.message and "'put'" in finding.message


def test_wal002_skips_open_schema_kinds(tmp_path):
    # An append with a **splat makes the field set statically unknown:
    # replay reads of that kind are not checkable.
    source = REPLAY_OK.replace(
        'journal.append(wal.PUT, key="k", value="v")',
        'journal.append(wal.PUT, **fields)',
    ).replace(
        "def writer(journal):", "def writer(journal, fields):"
    ).replace('record["value"]', 'record["anything"]')
    assert run_walcheck(graph_for(tmp_path, source)) == []


def test_wal002_covers_header_reads(tmp_path):
    source = REPLAY_OK.replace(
        'records[0]["schema"]', 'records[0]["trace_digest"]'
    )
    diagnostics = run_walcheck(graph_for(tmp_path, source))
    assert rules_of(diagnostics) == ["WAL002"]
    (finding,) = diagnostics
    assert "'trace_digest'" in finding.message and "'header'" in finding.message


def test_wal003_dead_handler(tmp_path):
    source = REPLAY_OK.replace(
        '        if kind == wal.PUT:\n',
        '        if kind == wal.DEL:\n            pass\n'
        '        elif kind == wal.PUT:\n',
    )
    diagnostics = run_walcheck(graph_for(tmp_path, source))
    assert rules_of(diagnostics) == ["WAL003"]
    (finding,) = diagnostics
    assert "dead" in finding.message and "'del_marker'" in finding.message


def test_wal003_declared_ignored_yet_handled(tmp_path):
    source = REPLAY_OK.replace(
        '        if kind == wal.PUT:\n',
        '        if kind == wal.MARK:\n            pass\n'
        '        elif kind == wal.PUT:\n',
    )
    diagnostics = run_walcheck(graph_for(tmp_path, source))
    assert rules_of(diagnostics) == ["WAL003"]
    (finding,) = diagnostics
    assert "contradict" in finding.message


def test_wal003_stale_declaration(tmp_path):
    source = REPLAY_OK.replace(
        "REPLAY_IGNORED = frozenset({wal.MARK})",
        "REPLAY_IGNORED = frozenset({wal.MARK, wal.DEL})",
    )
    diagnostics = run_walcheck(graph_for(tmp_path, source))
    assert rules_of(diagnostics) == ["WAL003"]
    (finding,) = diagnostics
    assert "never" in finding.message and "'del_marker'" in finding.message


def test_handler_scoping_ignores_durability_policy(tmp_path):
    # `if kind in SYNC_KINDS` inside the *writer* is durability policy,
    # not replay coverage — it must not count as a handler.
    source = REPLAY_OK.replace(
        "REPLAY_IGNORED = frozenset({wal.MARK})",
        "REPLAY_IGNORED = frozenset({wal.MARK})\n"
        "SYNC_KINDS = frozenset({wal.HEADER})",
    ).replace(
        '    journal.append(wal.MARK, note="n")',
        '    journal.append(wal.MARK, note="n")\n'
        "    if wal.PUT == wal.PUT and wal.MARK in SYNC_KINDS:\n"
        "        pass",
    )
    # Comparisons inside `writer` (not replay-scoped) change nothing.
    assert run_walcheck(graph_for(tmp_path, source)) == []


# ---------------------------------------------------------------------------
# one append site for two kinds; readers that are methods
# ---------------------------------------------------------------------------

TWO_KINDS = REPLAY_OK.replace(
    'journal.append(wal.PUT, key="k", value="v")',
    'journal.append(wal.DEL if early else wal.PUT, key="k", value="v")',
).replace("def writer(journal):", "def writer(journal, early):")


def test_conditional_kind_appends_both_kinds(tmp_path):
    # `A if cond else B` as the kind: the site writes both, so PUT keeps
    # its handler's fields and DEL (no handler, not declared) is WAL001.
    diagnostics = run_walcheck(graph_for(tmp_path, TWO_KINDS))
    assert rules_of(diagnostics) == ["WAL001"]
    assert "'del_marker'" in diagnostics[0].message


def test_conditional_kind_shares_one_field_set(tmp_path):
    source = TWO_KINDS.replace(
        "        if kind == wal.PUT:\n",
        "        if kind == wal.DEL:\n"
        '            value = record["tombstone"]\n'
        "        if kind == wal.PUT:\n",
    )
    diagnostics = run_walcheck(graph_for(tmp_path, source))
    assert rules_of(diagnostics) == ["WAL002"]
    assert "'tombstone'" in diagnostics[0].message


METHOD_READER = REPLAY_OK.replace(
    "def resume(records):",
    "class Store:\n"
    "    def replay_put(self, record):\n"
    '        for item in record["value"]:\n'
    "            self.last = item\n"
    "\n\n"
    "def resume(records):\n"
    "    store = Store()",
).replace('            value = record["value"]\n', "            store.replay_put(record)\n").replace(
    "return schema, value", "return schema"
)


def test_reads_follow_a_method_of_a_typed_local(tmp_path):
    # `store = Store()` then `store.replay_put(record)`: the call graph
    # knows the target, so the record's kind follows it into the method
    # — and a `for` iterable is a read like any other.
    assert run_walcheck(graph_for(tmp_path, METHOD_READER)) == []
    source = METHOD_READER.replace('record["value"]', 'record["values"]')
    diagnostics = run_walcheck(graph_for(tmp_path, source))
    assert rules_of(diagnostics) == ["WAL002"]
    assert "'values'" in diagnostics[0].message


# ---------------------------------------------------------------------------
# seeded mutations on the real tree
# ---------------------------------------------------------------------------


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


def test_real_tree_is_wal_clean(real_tree):
    report = deep_lint([str(real_tree)])
    wal_rules = [d for d in report.findings if d.rule.startswith("WAL")]
    assert wal_rules == [], "\n".join(d.format() for d in wal_rules)


def test_mutation_deleted_commit_replay_branch_trips_wal001(real_tree):
    mutate(
        real_tree,
        "core/recovery.py",
        "        elif kind == wal.COMMIT:\n"
        "            commits.append(record)\n",
        "",
    )
    findings = deep_findings(real_tree, "WAL001")
    assert any("'commit'" in d.message for d in findings), findings


def test_mutation_replay_only_field_trips_wal002(real_tree):
    mutate(
        real_tree,
        "core/journal.py",
        'run.reused = snapshot["reused"]',
        'run.reused = snapshot["reused_total"]',
    )
    findings = deep_findings(real_tree, "WAL002")
    assert any(
        "'reused_total'" in d.message and "'attempt_end'" in d.message
        for d in findings
    ), findings


def test_mutation_dropped_attempt_end_field_trips_wal002(real_tree):
    # One append site writes `attempt_end`; a field dropped there is a
    # field the replay still reads — the run half in journal.py, the
    # tier half in `ResourceManager.replay`, which `resume_run` reaches
    # as `controller.resources.replay(...)`: an attribute of a typed
    # local, typed by the controller's `__init__`.
    mutate(real_tree, "core/journal.py", "            reused=self.reused,\n", "")
    mutate(real_tree, "core/journal.py", "            evicted=evicted,\n", "")
    findings = deep_findings(real_tree, "WAL002")
    for field in ("'reused'", "'evicted'"):
        assert any(
            field in d.message and "'attempt_end'" in d.message for d in findings
        ), (field, findings)


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
