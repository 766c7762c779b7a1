"""Lint engine: walk files, run rules, apply waivers, build the report.

``lint_paths`` is the programmatic equivalent of ``repro lint PATH…``:
directories are walked for ``*.py`` files (deterministically sorted,
``__pycache__`` skipped) and each file is parsed once.  The per-file
rules run over each module's AST; when a FLOW rule is selected, the
whole-program taint pass runs over one call graph of the same files.
Each file's inline waivers are applied last, once, to all of that
file's findings, so the report distinguishes *clean*, *waived* and
*failing* code.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.rules import FLOW_RULES, ModuleSource, Rule, all_rules
from repro.lint.waivers import apply_waivers, collect_waivers


def iter_python_files(paths: list[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            out.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {raw}")
    return out


def _syntax_error(path: str, exc: SyntaxError) -> Diagnostic:
    return Diagnostic(
        rule="LINT999",
        path=path,
        line=exc.lineno or 0,
        column=exc.offset or 0,
        message=f"syntax error: {exc.msg}",
    )


def _run(module: ModuleSource, rules: list[Rule]) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for rule in rules:
        if not rule.exempt(module):
            diagnostics.extend(rule.check(module))
    return diagnostics


def _waive(
    path: str, source: str, diagnostics: list[Diagnostic], ran: set[str]
) -> list[Diagnostic]:
    """Apply ``source``'s inline waivers to all of its findings.

    A waiver is judged (used, or WAIVE002) unless every rule it names is
    a known rule that did not run, so ``--select`` never makes another
    rule's waiver look unused.
    """
    idle = {rule.rule_id for rule in all_rules()}.union(FLOW_RULES) - ran
    waivers, malformed = collect_waivers(source)
    judged = [waiver for waiver in waivers if not idle.issuperset(waiver.rules)]
    return apply_waivers(diagnostics, judged, malformed, path)


def lint_source(
    path: str, source: str, rules: list[Rule] | None = None
) -> list[Diagnostic]:
    """Run per-file rules over one module's source text; returns all
    diagnostics (incl. waived)."""
    rules = rules if rules is not None else all_rules()
    try:
        module = ModuleSource.parse(path, source)
    except SyntaxError as exc:
        return [_syntax_error(path, exc)]
    return _waive(path, source, _run(module, rules), {r.rule_id for r in rules})


def _select(select: list[str] | None) -> tuple[list[Rule], list[str]]:
    """Split a ``--select`` list into per-file rules and FLOW rule ids."""
    if select is None:
        return all_rules(), list(FLOW_RULES)
    per_file = {rule.rule_id: rule for rule in all_rules()}
    unknown = [
        rule for rule in select if rule not in per_file and rule not in FLOW_RULES
    ]
    if unknown:
        known = ", ".join([*per_file, *FLOW_RULES])
        raise ValueError(f"unknown rule id(s) {', '.join(unknown)}; known: {known}")
    return (
        [per_file[rule] for rule in select if rule in per_file],
        [rule for rule in select if rule in FLOW_RULES],
    )


def lint_paths(paths: list[str], select: list[str] | None = None) -> LintReport:
    """Lint every Python file under ``paths`` with the rule ids in
    ``select`` (default: every rule, FLOW included); returns the full
    report."""
    rules, flow = _select(select)
    files = iter_python_files(paths)
    report = LintReport()
    #: display path -> (source, findings) for every file that parsed.
    checked: dict[str, tuple[str, list[Diagnostic]]] = {}
    for file_path in files:
        display = str(file_path).replace(os.sep, "/")
        try:
            source = file_path.read_text()
        except OSError as exc:
            report.diagnostics.append(
                Diagnostic(
                    rule="LINT998",
                    path=display,
                    line=0,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        report.files_checked += 1
        try:
            module = ModuleSource.parse(display, source)
        except SyntaxError as exc:
            report.diagnostics.append(_syntax_error(display, exc))
            continue
        checked[display] = (source, _run(module, rules))
    if flow:
        # Imported here, like the compiler stack for --plan: no other
        # command needs the call-graph modules.
        from repro.lint.flow.callgraph import build_project
        from repro.lint.flow.taint import run_taint

        for diagnostic in run_taint(build_project(files)):
            if diagnostic.rule in flow:
                checked[diagnostic.path][1].append(diagnostic)
    ran = {rule.rule_id for rule in rules}.union(flow)
    for display, (source, diagnostics) in checked.items():
        report.extend(_waive(display, source, diagnostics, ran))
    return report
