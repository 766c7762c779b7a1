"""Static plan checker (Layer 2): PLAN001–PLAN007.

Pre-execution validation over compiled dataflow plans.  Everything the
interpreter or MapReduce compiler would crash on at runtime — cycles,
operator arity, schema/arity inference across operators, dangling
aliases — is reported as a batch of precise diagnostics with operator
and script-line locations, plus two marker invariants from the paper:
every sink must be covered by a verification point, and the replication
degree must be one of the enumerated guarantee levels
``r ∈ {f+1, 2f+1, 3f+1}`` (§3.3).

Rule catalogue::

    PLAN001  plan contains a cycle
    PLAN002  operator arity/structure violation
    PLAN003  schema inference failure
    PLAN004  plan has no STORE
    PLAN005  unused alias (vertex never reaches a STORE)
    PLAN006  sink not covered by a verification point
    PLAN007  replication degree outside {f+1, 2f+1, 3f+1}
    PLAN008  service tenant-trace admission config problem
             (zero quota, unknown workload, malformed arrivals)
"""

from __future__ import annotations

from repro.common.errors import PlanError
from repro.dataflow.operators import StoreOp, VerifyOp
from repro.dataflow.plan import LogicalPlan, VertexId
from repro.lint.diagnostics import Diagnostic

#: Maps :meth:`LogicalPlan.problems` kinds to rule ids.
_PROBLEM_RULES = {
    "cycle": "PLAN001",
    "arity": "PLAN002",
    "schema": "PLAN003",
    "no-store": "PLAN004",
    "dangling": "PLAN005",
}


class PlanCheckError(PlanError):
    """Raised when a pre-execution check rejects a plan.

    Carries every diagnostic (not just the first) so callers can render
    the full batch.
    """

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = diagnostics
        lines = [d.format() for d in diagnostics]
        count = len(diagnostics)
        header = f"plan check failed with {count} finding{'s' if count != 1 else ''}:"
        super().__init__("\n".join([header] + lines))


def _location(plan: LogicalPlan, vid: VertexId | None) -> tuple[int, str]:
    """(script line, human label) for a vertex — 0 when unknown."""
    if vid is None:
        return 0, ""
    op = plan.op(vid)
    line = op.source_line or 0
    label = f"vertex [{vid}] {op.describe()}"
    if op.alias:
        label += f" ({op.alias})"
    return line, label


def check_plan(plan: LogicalPlan, path: str = "<plan>") -> list[Diagnostic]:
    """Structure + schema diagnostics for a logical plan (PLAN001–005)."""
    diagnostics: list[Diagnostic] = []
    for problem in plan.problems():
        line, label = _location(plan, problem.vid)
        message = f"{label}: {problem.message}" if label else problem.message
        diagnostics.append(
            Diagnostic(
                rule=_PROBLEM_RULES[problem.kind],
                path=path,
                line=line,
                message=message,
            )
        )
    return diagnostics


def check_sink_coverage(
    instrumented_plan: LogicalPlan, path: str = "<plan>"
) -> list[Diagnostic]:
    """PLAN006: every STORE must consume a verified stream.

    Operates on an *instrumented* plan (after
    :func:`repro.core.instrument.instrument`): a covered sink's direct
    parent is the VerifyOp guarding its output stream.  An uncovered
    sink means the user-visible output could be committed without any
    digest quorum over the very bytes written.
    """
    diagnostics: list[Diagnostic] = []
    for vid in instrumented_plan.sinks():
        op = instrumented_plan.op(vid)
        if not isinstance(op, StoreOp):
            continue
        parents = instrumented_plan.inputs(vid)
        covered = any(
            isinstance(instrumented_plan.op(parent), VerifyOp) for parent in parents
        )
        if not covered:
            line, label = _location(instrumented_plan, vid)
            diagnostics.append(
                Diagnostic(
                    rule="PLAN006",
                    path=path,
                    line=line,
                    message=(
                        f"{label}: STORE {op.path!r} is not covered by a "
                        "verification point; its output stream can commit "
                        "without a digest quorum"
                    ),
                )
            )
    return diagnostics


def check_config(config, path: str = "<config>") -> list[Diagnostic]:
    """PLAN007: r must be an enumerated guarantee level (paper §3.3).

    ``config`` is any object with ``f`` and ``replication`` attributes
    (duck-typed so callers need not import the config module).
    """
    f = config.f
    replication = config.replication
    allowed = {f + 1, 2 * f + 1, 3 * f + 1}
    if replication in allowed:
        return []
    options = ", ".join(str(r) for r in sorted(allowed))
    return [
        Diagnostic(
            rule="PLAN007",
            path=path,
            line=0,
            message=(
                f"replication degree r={replication} is not an enumerated "
                f"guarantee level for f={f}; choose r ∈ {{{options}}} "
                "(f+1 optimistic, 2f+1 no-omission, 3f+1 full BFT)"
            ),
        )
    ]


def check_service_trace(text: str, path: str = "<trace>") -> list[Diagnostic]:
    """PLAN008: static check of a tenant trace.

    Reports :func:`repro.service.tenants.trace_problems`, the very
    list for which ``repro serve`` refuses a trace at load time: a zero
    quota, an unknown workload, malformed arrivals, a deployment its
    config rejects (r < f + 1, say) or a fault the cluster cannot run.
    So the linter flags a trace exactly when the service would refuse
    it, before anything runs.
    """
    import json as _json

    from repro.service.tenants import trace_problems

    try:
        data = _json.loads(text)
    except ValueError as exc:
        return [
            Diagnostic(
                rule="PLAN008",
                path=path,
                line=getattr(exc, "lineno", 0) or 0,
                message=f"tenant trace is not valid JSON: {exc}",
            )
        ]
    return [
        Diagnostic(rule="PLAN008", path=path, line=0, message=problem)
        for problem in trace_problems(data)
    ]


def check_prepared(prepared, path: str = "<script>") -> list[Diagnostic]:
    """All plan-checker diagnostics for a prepared script.

    ``prepared`` is duck-typed against
    :class:`repro.core.request_handler.PreparedScript`: it must expose
    ``plan``, ``instrumented.plan`` and ``config``.
    """
    diagnostics = check_plan(prepared.plan, path)
    diagnostics.extend(check_sink_coverage(prepared.instrumented.plan, path))
    diagnostics.extend(check_config(prepared.config, path))
    return diagnostics


def precheck_plan(plan: LogicalPlan, path: str = "<plan>") -> None:
    """Raise :class:`PlanCheckError` listing every defect, or return.

    Run it before :func:`~repro.dataflow.interpreter.interpret` for one
    aggregated, located error report instead of whichever runtime crash
    happens first.
    """
    diagnostics = check_plan(plan, path)
    if diagnostics:
        raise PlanCheckError(diagnostics)
