"""Layer-3 orchestration: build the graph, run the passes, waive.

:func:`deep_lint` is the engine behind ``repro lint --deep``: it builds
one :class:`~repro.lint.flow.callgraph.ProjectGraph` over all the files
on the command line, runs the interprocedural taint pass, then applies
the same inline-waiver
machinery layer 1 uses — restricted to the deep rule ids, so one
``# lint: allow FLOW001 <reason>`` works identically in both worlds and
an unused deep waiver is still reported (WAIVE002).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.engine import iter_python_files
from repro.lint.flow.callgraph import ProjectGraph, build_project
from repro.lint.flow.taint import run_taint
from repro.lint.waivers import apply_waivers


@dataclass(frozen=True)
class DeepRuleInfo:
    """Catalogue entry for ``--list-rules`` / ``--select``."""

    rule_id: str
    title: str


DEEP_RULES = [
    DeepRuleInfo("FLOW001", "wall-clock value can reach an assured sink"),
    DeepRuleInfo("FLOW002", "unrouted entropy can reach an assured sink"),
    DeepRuleInfo(
        "FLOW003", "process identity (env/id/hash/pid) can reach an assured sink"
    ),
    DeepRuleInfo(
        "FLOW004", "float accumulation inside a digest-reachable function"
    ),
]

DEEP_RULE_IDS = tuple(info.rule_id for info in DEEP_RULES)


def deep_rules() -> list[DeepRuleInfo]:
    return list(DEEP_RULES)


def deep_rule_ids(selected: list[str] | None = None) -> list[str]:
    """Validate a ``--select`` list against the deep catalogue."""
    if selected is None:
        return list(DEEP_RULE_IDS)
    unknown = [rule for rule in selected if rule not in DEEP_RULE_IDS]
    if unknown:
        raise ValueError(
            f"unknown deep rule id(s) {', '.join(unknown)}; "
            f"known: {', '.join(DEEP_RULE_IDS)}"
        )
    return selected


def build_graph(paths: list[str]) -> ProjectGraph:
    files = iter_python_files(paths)
    return build_project([Path(f) for f in files])


def deep_lint(
    paths: list[str],
    select: list[str] | None = None,
    graph: ProjectGraph | None = None,
) -> LintReport:
    """Run the whole-program passes over ``paths``."""
    selected = set(deep_rule_ids(select))
    if graph is None:
        graph = build_graph(paths)

    diagnostics = [d for d in run_taint(graph) if d.rule in selected]

    report = LintReport(files_checked=len(graph.sources))
    by_path: dict[str, list[Diagnostic]] = {}
    for diagnostic in diagnostics:
        by_path.setdefault(diagnostic.path, []).append(diagnostic)
    # Waivers are per-file; sweep every file so an unused deep waiver in
    # a findings-free file is still reported (WAIVE002).  Malformed
    # waiver comments (WAIVE003) are layer 1's to report — emitting them
    # here too would double them up under --deep.
    for path, waivers in sorted(graph.waivers.items()):
        relevant = [
            waiver
            for waiver in waivers
            if set(waiver.rules) & set(DEEP_RULE_IDS)
        ]
        file_diagnostics = by_path.pop(path, [])
        if not relevant and not file_diagnostics:
            continue
        report.extend(
            apply_waivers(file_diagnostics, relevant, [], path)
        )
    # Findings in files outside the graph's source map (shouldn't
    # happen, but never drop a finding on the floor).
    for leftovers in by_path.values():
        report.extend(leftovers)
    return report
