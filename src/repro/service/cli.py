"""``repro serve`` subcommand: the multi-tenant control-plane service.

Three entry modes:

* ``repro serve trace.json`` — run a tenant trace over one shared
  deployment and print per-tenant outcomes;
* ``repro serve --tenants 4 --jobs 5 ...`` — synthesize an open-loop
  trace (the same generator as the ``service_traffic`` benchmark) and
  run it;
* ``repro serve --resume --ledger L`` — crash-resume: replay the trace
  embedded in the ledger header against the durable prefix.

``--ledger`` makes the run durable (and byte-reproducible: two runs of
one trace produce identical ledgers — the CI ``serve-smoke`` job
byte-compares them).  ``--bench`` prints the traffic summary as JSON
for scripting.
"""

from __future__ import annotations

import json
import sys

from repro.common.errors import ReproError
from repro.telemetry.analysis import percentile


def add_serve_parser(sub) -> None:
    serve = sub.add_parser(
        "serve",
        help="run a multi-tenant tenant-trace over one shared deployment",
    )
    serve.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="tenant-trace JSON file (omit with --resume or synthetic flags)",
    )
    serve.add_argument(
        "--ledger",
        metavar="FILE",
        default=None,
        help="durable multiplexed ledger (append-only; required for "
        "--resume)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="resume a crashed service from its ledger (replays the "
        "embedded trace, verifying the durable prefix byte-for-byte)",
    )
    serve.add_argument(
        "--bench",
        action="store_true",
        help="print the open-loop traffic summary (jobs/sec, p50/p99 "
        "admission-to-verdict latency) as JSON",
    )
    serve.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the summary JSON to FILE",
    )
    serve.add_argument(
        "--slo",
        action="store_true",
        help="record telemetry and add per-tenant SLO status (built-in "
        "alert rules of `repro alerts`) to the summary",
    )
    synth = serve.add_argument_group("synthetic trace (no trace file)")
    synth.add_argument("--tenants", type=int, default=3)
    synth.add_argument("--jobs", type=int, default=3, dest="jobs_per_tenant")
    synth.add_argument("--quota", type=int, default=2,
                       help="max concurrent runs per tenant")
    synth.add_argument("--queue-limit", type=int, default=2)
    synth.add_argument(
        "--faulty-tenants",
        type=int,
        default=1,
        help="tenants flagged faulty (flooding traffic over faulty nodes)",
    )
    synth.add_argument("--nodes", type=int, default=12)
    synth.add_argument("--seed", type=int, default=20131209)
    synth.add_argument("--rows", type=int, default=30,
                       help="input rows per honest job")


def _tenant_slo(firings) -> dict:
    """Per-tenant SLO status from alert firings.

    A firing belongs to a tenant when its group carries a ``tenant``
    key (gauge rules) or a ``subject`` key (audit-event rules); global
    firings (no group) apply to every tenant and land under ``"*"``.
    """
    by_tenant: dict[str, list] = {}
    for firing in firings:
        group = dict(firing.group)
        tenant = group.get("tenant") or group.get("subject") or "*"
        by_tenant.setdefault(str(tenant), []).append(firing)
    return by_tenant


def _summary(result, stats, slo_firings=None) -> dict:
    tenants = sorted({run.tenant for run in result.runs}
                     | {reject.tenant for reject in result.rejects})
    slo_by_tenant = (
        _tenant_slo(slo_firings) if slo_firings is not None else None
    )
    per_tenant = {}
    for tenant in tenants:
        runs = result.runs_for(tenant)
        latencies = [run.latency for run in runs]
        per_tenant[tenant] = {
            "runs": len(runs),
            "assured": sum(1 for run in runs if run.assured),
            "rejected": sum(
                1 for reject in result.rejects if reject.tenant == tenant
            ),
            "latency_p50": (
                round(percentile(latencies, 50), 6) if latencies else None
            ),
            "latency_p99": (
                round(percentile(latencies, 99), 6) if latencies else None
            ),
        }
        if slo_by_tenant is not None:
            tenant_firings = slo_by_tenant.get(tenant, []) + slo_by_tenant.get(
                "*", []
            )
            per_tenant[tenant]["slo"] = {
                "status": "breached" if tenant_firings else "ok",
                "alerts": sorted({f.rule for f in tenant_firings}),
            }
    summary = {
        "trace": result.trace_name,
        "seed": result.seed,
        **stats,
        "quarantined": result.quarantined,
        "evicted": result.evicted,
        "resumed_prefix": result.resumed_prefix,
        "ledger": result.ledger_path,
        "tenants": per_tenant,
    }
    if slo_firings is not None:
        from repro.telemetry.slo import firing_rows

        summary["alerts"] = firing_rows(slo_firings)
    return summary


def cmd_serve(args) -> int:
    from repro.core.journal import env_kill_hook
    from repro.service.bench import synth_trace, traffic_stats
    from repro.service.loop import run_trace
    from repro.service.tenants import parse_trace

    crash_hook = env_kill_hook()
    telemetry = None
    if args.slo:
        from repro.telemetry import Telemetry

        telemetry = Telemetry.recording()
    try:
        if args.resume and not args.ledger:
            raise SystemExit("--resume needs --ledger FILE")
        if args.trace:
            try:
                with open(args.trace) as handle:
                    text = handle.read()
            except OSError as exc:
                raise SystemExit(f"cannot read trace: {exc}")
            trace = parse_trace(text, name=args.trace)
        elif args.resume:
            trace = None  # the ledger header embeds it
        else:
            trace = parse_trace(
                synth_trace(
                    tenants=args.tenants,
                    jobs_per_tenant=args.jobs_per_tenant,
                    quota=args.quota,
                    queue_limit=args.queue_limit,
                    faulty_tenants=args.faulty_tenants,
                    nodes=args.nodes,
                    seed=args.seed,
                    rows=args.rows,
                ),
                name="synthetic",
            )
        result = run_trace(
            trace,
            ledger_path=args.ledger,
            resume=args.resume,
            telemetry=telemetry,
            crash_hook=crash_hook,
        )
    except ReproError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    stats = traffic_stats(result)
    slo_firings = None
    if telemetry is not None:
        from repro.telemetry.slo import evaluate

        slo_firings = evaluate(telemetry.export_records())
    summary = _summary(result, stats, slo_firings=slo_firings)
    if args.bench:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_human(result, stats)
        if slo_firings is not None:
            _print_slo(summary["tenants"])
    if args.out:
        from repro.common.atomic_io import write_json

        write_json(args.out, summary)
        print(f"summary   : {args.out}")
    honest_failed = [
        run
        for run in result.runs
        if run.tenant not in result.faulty_tenants and not run.assured
    ]
    return 1 if honest_failed else 0


def _print_slo(per_tenant: dict) -> None:
    print("slo       :")
    for tenant in sorted(per_tenant):
        slo = per_tenant[tenant].get("slo")
        if slo is None:
            continue
        alerts = ", ".join(slo["alerts"]) if slo["alerts"] else "-"
        print(f"  {tenant}: {slo['status']} (alerts: {alerts})")


def _print_human(result, stats) -> None:
    print(f"trace     : {result.trace_name} (seed {result.seed})")
    print(
        f"jobs      : {stats['jobs_total']} total, {stats['admitted']} "
        f"admitted, {stats['rejected']} rejected"
    )
    print(
        f"assured   : {stats['assured']}/{stats['admitted']}"
        + (
            f" ({stats['honest_assured']}/{stats['honest_runs']} honest)"
            if result.faulty_tenants
            else ""
        )
    )
    if "latency_p50" in stats:
        print(
            f"latency   : p50 {stats['latency_p50']:.2f}s, "
            f"p99 {stats['latency_p99']:.2f}s (admission to verdict)"
        )
    print(
        f"throughput: {stats['jobs_per_second']:.4f} jobs/sim-second "
        f"over {stats['makespan']:.2f}s"
    )
    if result.quarantined:
        print(f"quarantine: {', '.join(result.quarantined)}")
    if result.evicted:
        print(f"evicted   : {', '.join(result.evicted)}")
    if result.resumed_prefix:
        print(
            f"resumed   : verified {result.resumed_prefix} durable "
            "record(s) before appending"
        )
    if result.ledger_path:
        print(f"ledger    : {result.ledger_path}")
    for tenant in sorted({run.tenant for run in result.runs}):
        runs = result.runs_for(tenant)
        marker = " (faulty)" if tenant in result.faulty_tenants else ""
        verdicts = ", ".join(
            f"{run.run_id}:{'assured' if run.assured else 'FAILED'}"
            for run in runs
        )
        print(f"  {tenant}{marker}: {verdicts}")
