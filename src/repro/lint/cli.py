"""CLI glue for ``repro lint``.

Three modes share the subcommand:

* ``repro lint PATH…`` — source lint: the per-file determinism rules
  (DET001–004) and the whole-program taint rules (FLOW001–004) in one
  run, with inline waivers the one way to suppress a finding.  Exit 1
  on any active finding (waived findings don't fail).
* ``repro lint --plan SCRIPT [-f N] [-r N] [-n N]`` — the static plan
  checker over a Pig-subset script: parse without validation, prepare
  (marker placement + instrumentation) and report every defect with
  script-line locations.
* ``repro lint --service-trace TRACE.json`` — the admission config of a
  service tenant trace.

All modes support ``--format json``; ``--format github`` additionally
emits GitHub workflow annotations for CI.
"""

from __future__ import annotations

import argparse
import json

from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.engine import lint_paths
from repro.lint.rules import FLOW_RULES, all_rules


def add_lint_parser(sub: argparse._SubParsersAction) -> None:
    lint = sub.add_parser(
        "lint",
        help="static analysis: determinism linter and plan checker",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="Python files/directories to lint",
    )
    lint.add_argument(
        "--plan",
        metavar="SCRIPT",
        default=None,
        help="check a Pig-subset script's plan instead",
    )
    lint.add_argument(
        "--service-trace",
        metavar="TRACE.json",
        default=None,
        help="check a service tenant-trace's admission config instead "
        "(PLAN008: zero quotas, unknown workloads, malformed arrivals)",
    )
    lint.add_argument(
        "-f",
        type=int,
        default=1,
        dest="faults",
        help="expected failures for --plan invariants",
    )
    lint.add_argument(
        "-r",
        type=int,
        default=None,
        dest="replication",
        help="replication degree for --plan invariants",
    )
    lint.add_argument(
        "-n",
        type=int,
        default=1,
        dest="points",
        help="verification points for --plan instrumentation",
    )
    lint.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--show-waived", action="store_true", help="also print waived findings"
    )
    lint.add_argument(
        "--format", choices=("text", "json", "github"), default="text"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )


def _list_rules() -> int:
    for rule in all_rules():
        exempt = (
            f"  (exempt: {', '.join(rule.exempt_suffixes)})"
            if rule.exempt_suffixes
            else ""
        )
        print(f"{rule.rule_id}  {rule.title}{exempt}")
    for rule_id, title in FLOW_RULES.items():
        print(f"{rule_id}  {title}  (whole-program)")
    return 0


def _github_annotations(report: LintReport) -> str:
    lines = []
    for diagnostic in report.sorted_diagnostics():
        if diagnostic.waived:
            continue
        message = diagnostic.message.replace("\n", " ")
        lines.append(
            f"::error file={diagnostic.path},line={diagnostic.line},"
            f"col={diagnostic.column},title={diagnostic.rule}::{message}"
        )
    lines.append(report.render(show_waived=False))
    return "\n".join(lines)


def _emit(report: LintReport, args) -> int:
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    elif args.format == "github":
        print(_github_annotations(report))
    else:
        print(report.render(show_waived=args.show_waived))
    return report.exit_code()


def _plan_report(args) -> LintReport:
    # Imported lazily: plan checking pulls in the parser/compiler stack,
    # which source linting doesn't need.
    from repro.common.config import ClusterBFTConfig
    from repro.common.errors import ParseError
    from repro.dataflow.piglatin import parse_script
    from repro.lint.plan_rules import check_config, check_plan, check_sink_coverage

    report = LintReport(files_checked=1)
    with open(args.plan) as handle:
        source = handle.read()
    try:
        plan = parse_script(source, validate=False)
    except ParseError as exc:
        report.diagnostics.append(
            Diagnostic(
                rule="PLAN000",
                path=args.plan,
                line=getattr(exc, "line", 0) or 0,
                column=getattr(exc, "column", 0) or 0,
                message=f"parse error: {exc}",
            )
        )
        return report
    report.extend(check_plan(plan, args.plan))

    replication = args.replication or 3 * args.faults + 1
    report.extend(
        check_config(
            argparse.Namespace(f=args.faults, replication=replication), args.plan
        )
    )
    structural = [d for d in report.findings if "PLAN000" <= d.rule <= "PLAN005"]
    if structural:
        return report  # a broken plan cannot be instrumented meaningfully

    from repro.core.request_handler import RequestHandler

    # Instrumentation shape doesn't depend on r, so clamp it to a value
    # the config accepts even when PLAN007 already fired above.
    config = ClusterBFTConfig(
        f=args.faults,
        replication=max(replication, args.faults + 1),
        verification_points=args.points,
    )
    sizes = {path: 1 for path in plan.load_paths().values()}
    prepared = RequestHandler(config).prepare(plan, sizes)
    report.extend(check_sink_coverage(prepared.instrumented.plan, args.plan))
    return report


def _service_trace_report(args) -> LintReport:
    from repro.lint.plan_rules import check_service_trace

    report = LintReport(files_checked=1)
    try:
        with open(args.service_trace) as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit(f"repro lint: cannot read trace: {exc}")
    report.extend(check_service_trace(text, args.service_trace))
    return report


def cmd_lint(args) -> int:
    if args.list_rules:
        return _list_rules()
    if args.plan is not None:
        return _emit(_plan_report(args), args)
    if args.service_trace is not None:
        return _emit(_service_trace_report(args), args)
    if not args.paths:
        raise SystemExit(
            "repro lint: give PATH arguments, --plan SCRIPT, or "
            "--service-trace TRACE.json"
        )
    selected = [s.strip() for s in (args.select or "").split(",") if s.strip()]
    try:
        report = lint_paths(args.paths, selected or None)
    except ValueError as exc:
        raise SystemExit(f"repro lint: {exc}")
    return _emit(report, args)
