"""Command-line interface: run Pig-subset scripts on a simulated
ClusterBFT deployment.

Examples::

    # run a script file with assured execution, staging CSV inputs
    python -m repro run analysis.pig --input twitter/followers=edges.csv

    # baseline (no replication), 16 nodes, more verification points
    python -m repro run analysis.pig --mode plain --nodes 16

    # explain: show plan, marker decisions and the compiled job graph
    python -m repro explain analysis.pig --input twitter/followers=edges.csv

    # capture a telemetry trace, then summarize it
    python -m repro run analysis.pig --trace out.jsonl ...
    python -m repro trace out.jsonl

    # causal protocol tracing: per-commit causal chains + flow arrows
    python -m repro run analysis.pig --trace out.jsonl --causal ...
    python -m repro trace out.jsonl --causal
    python -m repro trace out.jsonl --causal --chrome-flow out.flow.json

    # SLO alert plane: evaluate alert rules over a recorded trace
    python -m repro alerts out.jsonl
    python -m repro alerts out.jsonl --rules examples/alerts.json --format json

    # compare two traces of the same script (attempt/critical-path deltas)
    python -m repro trace clean.jsonl faulty.jsonl --diff

    # per-run dashboard from a trace (text or self-contained html)
    python -m repro report out.jsonl
    python -m repro report out.jsonl --format html -o out.report.html

    # host-time self-profile: record with --profile-host, render --profile
    python -m repro run analysis.pig --trace out.jsonl --profile-host ...
    python -m repro report out.jsonl --profile

    # benchmark regression suite (exit 1 on drift beyond tolerance)
    python -m repro bench --list
    python -m repro bench --smoke
    python -m repro bench fig12 --update-baselines

    # static analysis: determinism linter / plan checker
    python -m repro lint src/repro
    python -m repro lint --plan analysis.pig -f 1 -r 4

    # chaos campaign: fault matrix x seeds with invariant checking
    python -m repro chaos run --scenarios default --seeds 3
    python -m repro chaos list

    # durable control tier: journal the run, resume it after a crash
    python -m repro run analysis.pig --journal run.wal ...
    python -m repro resume run.wal

Input CSVs are headerless UTF-8; values are parsed as int, then float,
then kept as strings; empty cells become NULL.  Each line must have as
many fields as the schema of each LOAD of its path: a script or CSV
that cannot be read, decoded, parsed or matched, or a LOAD path with
no ``--input``, exits 2 before any job runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, NoReturn

from repro.chaos.cli import add_chaos_parser, cmd_chaos
from repro.common.atomic_io import write_json, write_text
from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.errors import ParseError, ReproError
from repro.common.records import Record
from repro.core import journal as wal
from repro.core.controller import ClusterBFTController
from repro.core.graph_analyzer import input_ratios
from repro.dataflow.operators import LoadOp
from repro.dataflow.piglatin import parse_script
from repro.bench.cli import add_bench_parser, cmd_bench
from repro.lint.cli import add_lint_parser, cmd_lint
from repro.service.cli import add_serve_parser, cmd_serve
from repro.telemetry import Telemetry
from repro.telemetry.analysis import TraceModel, diff_traces, summarize
from repro.telemetry.causal import build_causal, render_causal, to_chrome_flow
from repro.telemetry.export import read_jsonl_lenient, write_chrome_trace
from repro.telemetry.report import build_report, render_html, render_text
from repro.telemetry.slo import (
    DEFAULT_RULES,
    evaluate,
    firing_rows,
    load_rules,
    render_alerts,
)


#: ``repro run``/``repro resume`` exit status when rerun escalation
#: exhausted ``max_reruns`` without assurance (distinct from 1 =
#: plainly unassured and 2 = usage/journal errors).
EXIT_EXHAUSTED = 3


def _chrome_path_for(jsonl_path: str) -> str:
    base = jsonl_path[:-6] if jsonl_path.endswith(".jsonl") else jsonl_path
    return base + ".chrome.json"


def _parse_cell(cell: str):
    cell = cell.strip()
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def load_csv(path: str, widths: Iterable[int] = ()) -> list[Record]:
    """Read a headerless UTF-8 CSV into records.  A line whose number of
    fields differs from any of ``widths`` is a ``ValueError``."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            for width in widths:
                if len(cells) != width:
                    raise ValueError(
                        f"line {number} has {len(cells)} field(s) but its "
                        f"LOAD schema has {width}"
                    )
            records.append(Record(tuple(_parse_cell(c) for c in cells)))
    return records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ClusterBFT: assured data analysis on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("script", help="Pig-subset script file")
        p.add_argument(
            "--input",
            action="append",
            default=[],
            metavar="PATH=CSV",
            help="stage a CSV file as DFS path (repeatable)",
        )
        p.add_argument("--nodes", type=int, default=32)
        p.add_argument("--slots", type=int, default=3)
        p.add_argument("-f", type=int, default=1, dest="faults")
        p.add_argument("-r", type=int, default=None, dest="replication")
        p.add_argument("-n", type=int, default=1, dest="points")
        p.add_argument("--chunk", type=int, default=0, help="records per digest (d)")
        p.add_argument("--timeout", type=float, default=600.0)
        p.add_argument(
            "--max-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="cap the rerun escalation's timeout doubling at SECONDS "
            "(default: unbounded, the paper's behaviour); hitting the "
            "cap is audited",
        )
        p.add_argument(
            "--checkpoints",
            action="store_true",
            help="commit verified sub-graphs at verdict time as fsync'd "
            "`checkpoint` WAL records — a crash mid-attempt resumes "
            "from the last verified point instead of rerunning the "
            "whole closure (assured mode)",
        )
        p.add_argument(
            "--checkpoint-density",
            type=float,
            default=0.0,
            metavar="D",
            help="place verification points by expected-rerun-cost at "
            "density D in [0,1] (fraction of candidate vertices), "
            "replacing the fixed -n marker count; 0 keeps the "
            "paper's placement",
        )
        p.add_argument("--seed", type=int, default=20131209)

    run = sub.add_parser("run", help="execute a script")
    common(run)
    run.add_argument(
        "--mode",
        choices=("assured", "plain", "single"),
        default="assured",
    )
    run.add_argument("--show-output", type=int, default=10, metavar="N",
                     help="print up to N records per store (0 = none)")
    run.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        default=None,
        help="record a telemetry trace: writes a JSONL event stream plus "
        "a Chrome trace_event file (OUT.chrome.json) for Perfetto",
    )
    run.add_argument(
        "--causal",
        action="store_true",
        help="thread causal context through the trace (net.send/net.recv/"
        "digest.send/digest.recv events with message edges) so "
        "`repro trace --causal` can reconstruct per-commit causal "
        "chains; needs --trace, never perturbs simulated time",
    )
    run.add_argument(
        "--profile-host",
        action="store_true",
        help="stamp each trace record with a host_time wall-clock field "
        "so `repro report --profile` can surface simulator hotspots "
        "(breaks byte-comparability of the trace across runs)",
    )
    run.add_argument(
        "--journal",
        metavar="OUT.wal",
        default=None,
        help="write a durable control-plane journal (write-ahead log); "
        "a crashed run can be continued with `repro resume OUT.wal` "
        "(assured mode only)",
    )
    run.add_argument(
        "--outputs-json",
        metavar="OUT.json",
        default=None,
        help="write the published outputs as canonical JSON (atomic, "
        "deterministic) — used to byte-compare runs",
    )
    run.add_argument(
        "--schedule-from-trace",
        metavar="PRIOR.jsonl",
        default=None,
        help="trace-feedback scheduling: distill a prior run's trace "
        "(from `repro run --trace`) into a straggler profile and keep "
        "its slow nodes off the replica slots that carry the critical "
        "path on this run",
    )

    resume = sub.add_parser(
        "resume", help="resume a journaled run from its write-ahead log"
    )
    resume.add_argument(
        "wal", help="journal written by `repro run --journal OUT.wal`"
    )
    resume.add_argument(
        "--show-output", type=int, default=10, metavar="N",
        help="print up to N records per store (0 = none)",
    )
    resume.add_argument(
        "--outputs-json",
        metavar="OUT.json",
        default=None,
        help="write the published outputs as canonical JSON (atomic, "
        "deterministic) — used to byte-compare runs",
    )

    explain = sub.add_parser("explain", help="show plan, markers, job graph")
    common(explain)

    trace = sub.add_parser("trace", help="summarize or diff recorded traces")
    trace.add_argument(
        "trace_file",
        nargs="+",
        help="JSONL trace from `repro run --trace` (two files with --diff)",
    )
    trace.add_argument(
        "--diff",
        action="store_true",
        help="compare two traces of the same script: attempt-level "
        "critical-path and verification-vs-execution deltas",
    )
    trace.add_argument(
        "--chrome",
        metavar="OUT.json",
        default=None,
        help="also (re-)export the trace in Chrome trace_event format",
    )
    trace.add_argument("--top-nodes", type=int, default=10,
                       help="rows in the per-node task-time table")
    trace.add_argument(
        "--causal",
        action="store_true",
        help="reconstruct the causal DAG (per-commit chains, round "
        "slack, slowest links) from a trace recorded with "
        "`repro run --causal`",
    )
    trace.add_argument(
        "--chrome-flow",
        metavar="OUT.json",
        default=None,
        help="with --causal: export a Chrome trace_event file with "
        "message flow arrows (Perfetto draws send→recv edges)",
    )

    alerts = sub.add_parser(
        "alerts",
        help="evaluate SLO alert rules over a recorded trace",
    )
    alerts.add_argument(
        "trace_file", help="JSONL trace from `repro run --trace`"
    )
    alerts.add_argument(
        "--rules",
        metavar="RULES.json",
        default=None,
        help="alert-rule file (see examples/alerts.json); "
        "default: the built-in rule set",
    )
    alerts.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="plain text (default) or canonical JSON rows",
    )
    alerts.add_argument(
        "--fail-on-fire",
        action="store_true",
        help="exit 1 when any alert fired (CI gate)",
    )

    report = sub.add_parser(
        "report",
        help="render a per-run dashboard from a trace (text or html)",
    )
    report.add_argument(
        "trace_file", help="JSONL trace from `repro run --trace`"
    )
    report.add_argument(
        "--format",
        choices=("text", "html"),
        default="text",
        dest="fmt",
        help="text to stdout (default) or a single-file html dashboard",
    )
    report.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="FILE",
        help="write to FILE instead of stdout "
        "(default for html: <trace>.report.html)",
    )
    report.add_argument(
        "--profile",
        action="store_true",
        help="add the host-time hotspot section (needs a trace recorded "
        "with --profile-host / wall_clock=True)",
    )
    report.add_argument("--top-nodes", type=int, default=16,
                        help="rows in the node timeline section")

    add_serve_parser(sub)
    add_bench_parser(sub)
    add_lint_parser(sub)
    add_chaos_parser(sub)
    return parser


def config_from_args(args) -> SystemConfig:
    replication = args.replication or 3 * args.faults + 1
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=args.nodes, slots_per_node=args.slots),
        bft=ClusterBFTConfig(
            f=args.faults,
            replication=replication,
            verification_points=args.points,
            digest_chunk_records=args.chunk,
            verifier_timeout=args.timeout,
            max_verifier_timeout=args.max_timeout,
            checkpoints=args.checkpoints,
            checkpoint_density=args.checkpoint_density,
        ),
        seed=args.seed,
    )


def _unusable(prog: str, path: str, exc: Exception) -> NoReturn:
    """A file input that cannot be used: one line naming it, exit 2."""
    if isinstance(exc, UnicodeDecodeError):
        reason = "not UTF-8 text"
    else:
        reason = getattr(exc, "strerror", None) or exc
    print(f"{prog}: {path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def read_inputs(prog: str, args) -> tuple[str, dict[str, list[Record]]]:
    """The script and every ``--input`` CSV, each read once and checked
    before any job runs: the script parses, every LOAD path has an
    ``--input``, and every CSV line has as many fields as the schema of
    each LOAD of its path."""
    try:
        with open(args.script, encoding="utf-8") as handle:
            script = handle.read()
        plan = parse_script(script, validate=False)
    except (OSError, ValueError, ParseError) as exc:
        _unusable(prog, args.script, exc)
    widths: dict[str, set[int]] = {}
    for op in map(plan.op, plan.sources()):
        if isinstance(op, LoadOp):
            widths.setdefault(op.path, set()).add(len(op.load_schema))
    inputs: dict[str, list[Record]] = {}
    for spec in args.input:
        if "=" not in spec:
            raise SystemExit(f"--input needs PATH=CSV, got {spec!r}")
        dfs_path, csv_path = spec.split("=", 1)
        try:
            inputs[dfs_path] = load_csv(csv_path, sorted(widths.get(dfs_path, ())))
        except (OSError, ValueError) as exc:
            _unusable(prog, csv_path, exc)
    for dfs_path in sorted(widths.keys() - inputs.keys()):
        missing = ReproError(f"LOAD '{dfs_path}' has no --input {dfs_path}=CSV")
        _unusable(prog, args.script, missing)
    return script, inputs


def make_controller(args, inputs, telemetry=None, journal=None) -> ClusterBFTController:
    controller = ClusterBFTController(
        config_from_args(args), telemetry=telemetry, journal=journal
    )
    prior_trace = getattr(args, "schedule_from_trace", None)
    if prior_trace:
        from repro.telemetry.straggler import build_profile

        profile = build_profile(_read_trace(prior_trace)[0])
        controller.scheduler.set_straggler_profile(profile)
        if profile.stragglers:
            print(
                "stragglers: "
                + ", ".join(profile.stragglers)
                + f" (from {prior_trace})"
            )
    for dfs_path, records in inputs.items():
        controller.load_input(dfs_path, records)
    return controller


def _write_outputs_json(path: str, result) -> None:
    """Canonical, deterministic outputs artifact (atomic write): the
    byte-comparison target of the CI kill-and-resume job."""
    payload = {
        "assured": bool(result.assured),
        "exhausted": bool(result.exhausted),
        "outputs": {
            logical: wal.records_to_json(records)
            for logical, records in sorted(result.outputs.items())
        },
    }
    try:
        write_json(path, payload)
    except OSError as exc:
        raise SystemExit(f"cannot write outputs json: {exc}")
    print(f"outputs   : {path}")


def _print_result(result, show_output: int) -> None:
    print(f"assured   : {result.assured}")
    print(f"latency   : {result.latency:.2f} simulated seconds")
    print(f"attempts  : {result.attempts}")
    for outcome in result.outcomes:
        print(f"  verdict {outcome.sid}: {outcome.status}")
    for path, records in result.outputs.items():
        print(f"\n{path} ({len(records)} records):")
        for record in records[:show_output]:
            print(f"  {tuple(record.fields)}")
        if len(records) > show_output:
            print(f"  ... {len(records) - show_output} more")


def _exhausted_diag(prog: str, result) -> int:
    """One-line diagnostic (no traceback) + the dedicated exit code."""
    print(
        f"{prog}: {result.script_id}: rerun escalation exhausted after "
        f"{result.attempts} attempt(s) without assurance",
        file=sys.stderr,
    )
    return EXIT_EXHAUSTED


def cmd_run(args) -> int:
    if not args.trace and args.profile_host:
        raise SystemExit("--profile-host needs --trace OUT.jsonl")
    if not args.trace and args.causal:
        raise SystemExit("--causal needs --trace OUT.jsonl")
    if args.journal and args.mode != "assured":
        raise SystemExit("--journal requires --mode assured")
    script, inputs = read_inputs("repro run", args)
    telemetry = None
    if args.trace:
        # Streaming sink: records hit the file as they are emitted, so a
        # crashed run still leaves its trace prefix on disk.
        try:
            telemetry = Telemetry.streaming(
                args.trace, wall_clock=args.profile_host, causal=args.causal
            )
        except OSError as exc:
            raise SystemExit(f"cannot open trace file: {exc}")
    journal = None
    if args.journal:
        try:
            journal = wal.Journal.create(
                args.journal,
                config_from_args(args),
                script,
                inputs,
                crash_hook=wal.env_kill_hook(),
            )
        except (OSError, wal.JournalError) as exc:
            raise SystemExit(f"cannot open journal: {exc}")
    controller = make_controller(args, inputs, telemetry=telemetry, journal=journal)
    if args.mode == "plain":
        result = controller.run_plain(script)
    elif args.mode == "single":
        result = controller.run_single(script)
    else:
        result = controller.run_assured(script)
    if telemetry is not None:
        chrome_path = _chrome_path_for(args.trace)
        try:
            telemetry.finalize()
            write_chrome_trace(read_jsonl_lenient(args.trace)[0], chrome_path)
        except OSError as exc:
            raise SystemExit(f"cannot write trace: {exc}")
        print(f"trace     : {args.trace} (+ {chrome_path})")
    if args.journal:
        print(f"journal   : {args.journal}")
    print(f"mode      : {args.mode}")
    _print_result(result, args.show_output)
    if args.outputs_json:
        _write_outputs_json(args.outputs_json, result)
    if args.mode == "assured" and result.exhausted:
        return _exhausted_diag("repro run", result)
    return 0 if (result.assured or args.mode != "assured") else 1


def cmd_resume(args) -> int:
    from repro.core.recovery import resume_run

    try:
        recovered = resume_run(args.wal, crash_hook=wal.env_kill_hook())
    except wal.JournalError as exc:
        print(f"repro resume: {exc}", file=sys.stderr)
        return 2
    for warning in recovered.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    result = recovered.result
    if recovered.completed:
        print("journal   : complete — recorded result, nothing re-executed")
    else:
        print(
            f"resumed   : attempt {recovered.start_attempt}, "
            f"{recovered.commits_replayed} commit(s) replayed, "
            f"{recovered.checkpoints_replayed} checkpoint(s) replayed"
        )
    _print_result(result, args.show_output)
    if args.outputs_json:
        _write_outputs_json(args.outputs_json, result)
    if result.exhausted:
        return _exhausted_diag("repro resume", result)
    return 0 if result.assured else 1


def cmd_explain(args) -> int:
    script, inputs = read_inputs("repro explain", args)
    controller = make_controller(args, inputs)
    plan = parse_script(script)
    ratios = input_ratios(plan, controller._input_sizes(plan))
    prepared = controller.prepare(plan)
    print("Logical plan:")
    print(plan.describe())
    print("\nInput ratios:")
    for vid in plan.topological_order():
        print(f"  [{vid}] {plan.op(vid).describe():<30} {ratios.get(vid, 0.0):.3f}")
    print("\nVerification points:")
    for vid, score in zip(prepared.marked_vertices, prepared.marker_scores):
        print(f"  [{vid}] {plan.op(vid).describe()} (score {score:.2f})")
    print("\nJob graph:")
    print(prepared.job_graph.describe())
    return 0


def _read_trace(path: str) -> tuple[list[dict], list[str]]:
    """Read a trace, degrading gracefully on truncated streams.

    A streaming trace whose run died before ``finalize()`` has no
    trailing metrics snapshot and possibly a cut-off last line; both are
    reported as warnings on stderr instead of crashing the analysis.  A
    corrupt trace exits with one line naming the file.
    """
    try:
        records, warnings = read_jsonl_lenient(path)
    except OSError as exc:
        raise SystemExit(f"cannot read trace: {exc}")
    except ValueError as exc:
        raise SystemExit(f"not a JSONL trace: {path}: {exc}")
    for warning in warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return records, warnings


def cmd_trace(args) -> int:
    if args.diff:
        if len(args.trace_file) != 2:
            raise SystemExit("repro trace --diff needs exactly two trace files")
        path_a, path_b = args.trace_file
        diff = diff_traces(
            _read_trace(path_a)[0],
            _read_trace(path_b)[0],
            label_a=path_a,
            label_b=path_b,
        )
        print(diff.render(top_nodes=args.top_nodes))
        return 0
    if len(args.trace_file) != 1:
        raise SystemExit("repro trace takes one trace file (or two with --diff)")
    records, _warnings = _read_trace(args.trace_file[0])
    if args.chrome:
        write_chrome_trace(records, args.chrome)
        print(f"chrome trace written to {args.chrome}")
    if args.chrome_flow and not args.causal:
        raise SystemExit("--chrome-flow needs --causal")
    trace = TraceModel.of(records)
    if args.causal:
        graph = build_causal(trace)
        if args.chrome_flow:
            document = to_chrome_flow(trace)
            try:
                write_json(args.chrome_flow, document)
            except OSError as exc:
                raise SystemExit(f"cannot write chrome flow trace: {exc}")
            # Status to stderr: stdout is the causal analysis, which CI
            # byte-compares across runs with differently named files.
            print(
                f"chrome flow trace written to {args.chrome_flow}",
                file=sys.stderr,
            )
        print(render_causal(graph))
        return 0
    print(summarize(trace).render(top_nodes=args.top_nodes))
    return 0


def cmd_alerts(args) -> int:
    records, _warnings = _read_trace(args.trace_file)
    if args.rules:
        try:
            rules = load_rules(args.rules)
        except OSError as exc:
            raise SystemExit(f"cannot read rules: {exc}")
        except ValueError as exc:
            raise SystemExit(f"bad rules file {args.rules}: {exc}")
    else:
        rules = DEFAULT_RULES
    firings = evaluate(records, rules)
    if args.fmt == "json":
        print(json.dumps(firing_rows(firings), sort_keys=True, indent=2))
    else:
        print(render_alerts(firings, rules))
    if args.fail_on_fire and firings:
        return 1
    return 0


def cmd_report(args) -> int:
    records, warnings = _read_trace(args.trace_file)
    report = build_report(
        records,
        source=args.trace_file,
        warnings=warnings,
        top_nodes=args.top_nodes,
        profile=args.profile,
    )
    if args.fmt == "html":
        rendered = render_html(report)
        out_path = args.out
        if out_path is None:
            base = (
                args.trace_file[:-6]
                if args.trace_file.endswith(".jsonl")
                else args.trace_file
            )
            out_path = base + ".report.html"
    else:
        rendered = render_text(report)
        out_path = args.out
    if out_path is None or out_path == "-":
        sys.stdout.write(rendered)
    else:
        try:
            write_text(out_path, rendered)
        except OSError as exc:
            raise SystemExit(f"cannot write report: {exc}")
        print(f"report written to {out_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "resume":
            return cmd_resume(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "alerts":
            return cmd_alerts(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "lint":
            return cmd_lint(args)
        if args.command == "chaos":
            return cmd_chaos(args)
        if args.command == "serve":
            return cmd_serve(args)
        return cmd_explain(args)
    except BrokenPipeError:
        # stdout piped to a pager/head that exited; not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
