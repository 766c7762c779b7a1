"""CLI glue for ``repro lint``.

Three modes share the subcommand:

* ``repro lint PATH…`` — Layer 1, the determinism linter over Python
  sources.  Exit 1 on any active finding (waived findings don't fail).
* ``repro lint --plan SCRIPT [-f N] [-r N] [-n N]`` — Layer 2, the
  static plan checker over a Pig-subset script: parse without
  validation, prepare (marker placement + instrumentation) and report
  every defect with script-line locations.
* ``repro lint --deep PATH…`` — Layer 3, the whole-program passes
  (interprocedural taint FLOW001–004) merged with Layer 1, gated by the
  committed findings baseline (``LINT_BASELINE.json``): findings not
  in the baseline exit 1, stale baseline entries exit 1 until
  ``--update-baseline`` shrinks the file.

All modes support ``--format json``; ``--format github`` additionally
emits GitHub workflow annotations for CI.
"""

from __future__ import annotations

import argparse
import json

from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.engine import lint_paths
from repro.lint.rules import all_rules, rules_by_id


def add_lint_parser(sub: argparse._SubParsersAction) -> None:
    lint = sub.add_parser(
        "lint",
        help="static analysis: determinism linter and plan checker",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="Python files/directories to lint (Layer 1)",
    )
    lint.add_argument(
        "--plan",
        metavar="SCRIPT",
        default=None,
        help="check a Pig-subset script's plan instead (Layer 2)",
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
    lint.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program passes (FLOW) and gate "
        "against the findings baseline",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="findings baseline for --deep (default: LINT_BASELINE.json; "
        "a missing file means an empty baseline)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current --deep findings",
    )


def _list_rules() -> int:
    from repro.lint.flow.deep import deep_rules

    for rule in all_rules():
        exempt = (
            f"  (exempt: {', '.join(rule.exempt_suffixes)})"
            if rule.exempt_suffixes
            else ""
        )
        print(f"{rule.rule_id}  {rule.title}{exempt}")
    for info in deep_rules():
        print(f"{info.rule_id}  {info.title}  (deep)")
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


def _deep_report(args, selected: list[str] | None) -> tuple[LintReport, int]:
    """Merged Layer 1 + Layer 3 report, gated by the baseline.

    Returns ``(report, extra_exit)`` where ``extra_exit`` is 1 when the
    baseline itself demands failure (stale entries) independently of
    the report's own findings.
    """
    from repro.lint.flow.baseline import (
        DEFAULT_PATH,
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.lint.flow.deep import DEEP_RULE_IDS, deep_lint

    layer1_sel = deep_sel = None
    run_layer1 = run_deep = True
    if selected is not None:
        layer1_sel = [s for s in selected if s not in DEEP_RULE_IDS]
        deep_sel = [s for s in selected if s in DEEP_RULE_IDS]
        run_layer1 = bool(layer1_sel)
        run_deep = bool(deep_sel)

    report = LintReport()
    if run_layer1:
        rules = rules_by_id(layer1_sel) if layer1_sel else None
        layer1 = lint_paths(args.paths, rules)
        report.extend(layer1.diagnostics)
        report.files_checked = layer1.files_checked
    if run_deep:
        deep = deep_lint(args.paths, deep_sel)
        report.extend(deep.diagnostics)
        report.files_checked = max(report.files_checked, deep.files_checked)

    baseline_path = args.baseline or DEFAULT_PATH
    baseline = load_baseline(baseline_path)
    if args.update_baseline:
        write_baseline(baseline_path, report.findings)
        print(
            f"baseline {baseline_path} updated: "
            f"{len(report.findings)} entr"
            f"{'y' if len(report.findings) == 1 else 'ies'}"
        )
        report.diagnostics = [
            d.waive(f"baselined ({baseline_path})") if not d.waived else d
            for d in report.diagnostics
        ]
        return report, 0

    new_findings, _, stale = apply_baseline(report.findings, baseline)
    new_ids = {id(d) for d in new_findings}
    report.diagnostics = [
        d
        if d.waived or id(d) in new_ids
        else d.waive(f"baselined ({baseline_path})")
        for d in report.diagnostics
    ]
    extra_exit = 0
    if stale:
        extra_exit = 1
        for entry in stale:
            print(
                f"{baseline_path}: stale baseline entry {entry!r} — the "
                "finding is gone; rerun with --update-baseline to shrink "
                "the baseline"
            )
    return report, extra_exit


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
    selected = None
    if args.select:
        selected = [s.strip() for s in args.select.split(",") if s.strip()]
    if args.deep:
        try:
            report, extra_exit = _deep_report(args, selected)
        except ValueError as exc:
            raise SystemExit(f"repro lint: {exc}")
        return max(_emit(report, args), extra_exit)
    rules = None
    if selected:
        from repro.lint.flow.deep import DEEP_RULE_IDS

        deep_only = [s for s in selected if s in DEEP_RULE_IDS]
        if deep_only:
            raise SystemExit(
                f"repro lint: rule(s) {', '.join(deep_only)} are "
                "whole-program rules — add --deep"
            )
        rules = rules_by_id(selected)
    report = lint_paths(args.paths, rules)
    return _emit(report, args)
