"""Interprocedural nondeterminism taint (FLOW001–FLOW004).

A *source* is an expression whose value differs between two replicas of
the same logical execution: the host clock, unrouted entropy, ambient
process identity (environment, pids, hostnames, CPython ``id()``/default
``hash()``), or order/platform-sensitive float accumulation.  A *sink*
is a call whose arguments must be byte-identical across replicas for
ClusterBFT's assurance argument to hold: digest computation, journal and
ledger appends, audit records, trace emission, and scheduler decisions.

The pass is coarse by design: a sink call site is flagged when the
function containing it can *reach* a source — transitively, through the
project call graph — under the same rule.  That over-approximates real
dataflow (the tainted value may never flow into the sink argument), but
every finding comes with the full source→sink call chain, so review is
cheap, and the waiver mechanism (``# lint: allow FLOW001 <reason>``)
records the argument for each sanctioned site.  Sources on a line that
already carries a waiver naming a per-file rule (``# lint: allow
DET002 <reason>``) are sanctioned at the source: the telemetry
wall-clock profile path and the seeded chaos RNG do not re-taint every
caller that reaches them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.det_rules import (
    DIGEST_NAME_RE,
    RANDOM_CONSTRUCTORS,
    RANDOM_MODULE_STATE,
    WALL_CLOCK,
    _has_float_arithmetic,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.callgraph import CallSite, FunctionInfo, ProjectGraph
from repro.lint.rules import FLOW_RULES

# ---------------------------------------------------------------------------
# source tables
# ---------------------------------------------------------------------------

#: FLOW002: entropy that is not routed through the RngRegistry.
ENTROPY_SOURCES = (
    RANDOM_CONSTRUCTORS
    | RANDOM_MODULE_STATE
    | {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.choice",
    }
)

#: FLOW003: ambient process identity — stable within one process, but
#: different between the replicas that must agree.
IDENTITY_SOURCES = {
    "builtins.id",
    "builtins.hash",
    "os.getenv",
    "os.getpid",
    "os.getppid",
    "os.uname",
    "socket.gethostname",
    "socket.getfqdn",
    "platform.node",
}

#: Dotted prefixes matched against attribute loads (``os.environ[...]``
#: and ``os.environ.get(...)`` both resolve under ``os.environ``).
IDENTITY_PREFIXES = ("os.environ",)

#: Modules whose *own* source sites are sanctioned per rule: the one
#: place the behaviour is supposed to live (mirrors layer-1 exemptions).
SOURCE_EXEMPT_SUFFIXES = {
    "FLOW002": ("repro/common/rng.py",),
}


@dataclass(frozen=True)
class SourceSite:
    """One nondeterminism source inside a function body."""

    rule: str
    function: str  # qualname
    dotted: str  # what was read (``time.monotonic``, ``os.environ``)
    line: int


@dataclass(frozen=True)
class SinkSite:
    """One assured-sink call inside a function body."""

    category: str  # digest | journal-append | audit-record | trace-emit | scheduler
    function: str  # qualname
    detail: str  # human-readable callee description
    line: int
    col: int


#: Receiver-chain components that mark an append target as durable.
_DURABLE_RECEIVERS = {"journal", "ledger", "stream", "wal", "_journal", "_ledger"}
#: Receiver components marking the audit log.
_AUDIT_RECEIVERS = {"audit", "_audit", "audit_log"}
#: Receiver components marking a tracer.
_TRACER_RECEIVERS = {"tracer", "_tracer"}
_TRACER_METHODS = {"event", "begin", "emit", "gauge"}
#: Scheduler placement/quarantine decisions that must replay identically.
_SCHEDULER_RECEIVERS = {"scheduler", "_scheduler"}
_SCHEDULER_METHODS = {
    "assign",
    "quarantine",
    "register_owner",
    "set_slot_budget",
}


def _receiver_components(receiver: str | None) -> set[str]:
    return set(receiver.split(".")) if receiver else set()


def _class_of(graph: ProjectGraph, qualname: str | None) -> str:
    if qualname is None:
        return ""
    info = graph.functions.get(qualname)
    if info is None or info.class_qualname is None:
        return ""
    return info.class_qualname.rsplit(".", 1)[-1]


def classify_sink(graph: ProjectGraph, site: CallSite) -> tuple[str, str] | None:
    """``(category, detail)`` when ``site`` is an assured sink."""
    attr = site.attr or ""
    components = _receiver_components(site.receiver)
    target_class = _class_of(graph, site.target)
    target_name = (site.target or "").rsplit(".", 1)[-1]

    if site.dotted and site.dotted.startswith("hashlib."):
        return ("digest", site.dotted)
    if DIGEST_NAME_RE.search(attr or target_name or (site.dotted or "")):
        return ("digest", site.dotted or site.target or attr)
    if attr == "append" and (
        components & _DURABLE_RECEIVERS
        or "Journal" in target_class
        or "Ledger" in target_class
        or "Stream" in target_class
    ):
        return ("journal-append", f"{site.receiver}.append")
    if target_name == "_ledger" and "Service" in target_class:
        return ("journal-append", f"{site.receiver}._ledger" if site.receiver else "_ledger")
    if attr == "record" and components & _AUDIT_RECEIVERS:
        return ("audit-record", f"{site.receiver}.record")
    if attr in _TRACER_METHODS and components & _TRACER_RECEIVERS:
        return ("trace-emit", f"{site.receiver}.{attr}")
    if attr in _SCHEDULER_METHODS and (
        components & _SCHEDULER_RECEIVERS or "Scheduler" in target_class
    ):
        return ("scheduler", f"{site.receiver}.{attr}")
    return None


# ---------------------------------------------------------------------------
# source collection
# ---------------------------------------------------------------------------


def _sanctioned_lines(graph: ProjectGraph) -> dict[str, set[int]]:
    """Per display path, lines covered by a waiver naming a per-file rule.

    A ``# lint: allow DET00x`` on the source line means a reviewer has
    already argued for that site (the telemetry wall-clock profile
    path, the seeded chaos RNG); re-reporting every caller that reaches
    it through the graph would only bury real findings.  Waivers naming
    only FLOW rules do NOT sanction the source — they waive the FLOW
    finding itself, so they stay accounted for (used/unused) like any
    other waiver.
    """
    sanctioned: dict[str, set[int]] = {}
    for path, waivers in graph.waivers.items():
        lines = {
            waiver.target_line
            for waiver in waivers
            if any(rule not in FLOW_RULES for rule in waiver.rules)
        }
        if lines:
            sanctioned[path] = lines
    return sanctioned


def _source_rule(dotted: str) -> str | None:
    if dotted in WALL_CLOCK:
        return "FLOW001"
    if dotted in ENTROPY_SOURCES:
        return "FLOW002"
    if dotted in IDENTITY_SOURCES:
        return "FLOW003"
    for prefix in IDENTITY_PREFIXES:
        if dotted == prefix or dotted.startswith(prefix + "."):
            return "FLOW003"
    return None


def collect_sources(graph: ProjectGraph) -> dict[str, list[SourceSite]]:
    """``{qualname: [SourceSite, ...]}`` over the whole project."""
    sanctioned = _sanctioned_lines(graph)
    sources: dict[str, list[SourceSite]] = {}
    for info in graph.functions.values():
        sanctioned_here = sanctioned.get(info.path, set())
        sites: list[SourceSite] = []
        for call in info.calls:
            if call.dotted is None or call.line in sanctioned_here:
                continue
            rule = _source_rule(call.dotted)
            if rule is None:
                continue
            if _exempt_source(rule, info.path):
                continue
            sites.append(SourceSite(rule, info.qualname, call.dotted, call.line))
        for dotted, line in info.ext_uses:
            if line in sanctioned_here:
                continue
            rule = _source_rule(dotted)
            if rule is not None and not _exempt_source(rule, info.path):
                sites.append(SourceSite(rule, info.qualname, dotted, line))
        if sites:
            sources[info.qualname] = sites
    return sources


def _exempt_source(rule: str, path: str) -> bool:
    suffixes = SOURCE_EXEMPT_SUFFIXES.get(rule, ())
    normalized = path.replace("\\", "/")
    return any(normalized.endswith(suffix) for suffix in suffixes)


def collect_sinks(graph: ProjectGraph) -> dict[str, list[SinkSite]]:
    sinks: dict[str, list[SinkSite]] = {}
    for info in graph.functions.values():
        sites = []
        for call in info.calls:
            classified = classify_sink(graph, call)
            if classified is not None:
                category, detail = classified
                sites.append(
                    SinkSite(category, info.qualname, detail, call.line, call.col)
                )
        if sites:
            sinks[info.qualname] = sites
    return sinks


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def _chain_text(chain: list[str]) -> str:
    return " -> ".join(part.split(".", 2)[-1] for part in chain)


def run_taint(graph: ProjectGraph) -> list[Diagnostic]:
    """All FLOW findings over the project graph."""
    sources = collect_sources(graph)
    sinks = collect_sinks(graph)
    diagnostics: list[Diagnostic] = []

    for sink_fn, sink_sites in sorted(sinks.items()):
        info = graph.functions[sink_fn]
        tree = graph.reachable([sink_fn])
        tainted: dict[str, SourceSite] = {}  # rule -> first source found
        for reached in tree:
            for site in sources.get(reached, []):
                tainted.setdefault(site.rule, site)
        if not tainted:
            continue
        reported: set[tuple[str, int]] = set()
        for sink in sink_sites:
            for rule, source in sorted(tainted.items()):
                key = (rule, sink.line)
                if key in reported:
                    continue
                reported.add(key)
                chain = graph.chain(tree, source.function)
                chain_display = _chain_text(chain)
                source_path = graph.functions[source.function].path
                diagnostics.append(
                    Diagnostic(
                        rule=rule,
                        path=info.path,
                        line=sink.line,
                        column=sink.col,
                        message=(
                            f"{FLOW_RULES[rule]}: {sink.category} sink "
                            f"{sink.detail!r} is reachable from {source.dotted} "
                            f"({source_path}:{source.line}) via "
                            f"{chain_display}"
                        ),
                        symbol=sink_fn,
                        chain=tuple(chain),
                    )
                )
    diagnostics.extend(_run_float_taint(graph, sinks))
    return diagnostics


def _run_float_taint(
    graph: ProjectGraph, sinks: dict[str, list[SinkSite]]
) -> list[Diagnostic]:
    """FLOW004: float accumulation anywhere a digest sink can reach.

    Layer 1's DET004 only sees functions whose *name* looks digest-like;
    here the call graph tells us which functions actually feed a digest,
    whatever they are called.
    """
    digest_fns = [
        fn
        for fn, sites in sinks.items()
        if any(site.category == "digest" for site in sites)
    ]
    diagnostics = []
    seen: set[tuple[str, int]] = set()
    for root in sorted(digest_fns):
        tree = graph.reachable([root])
        for reached in tree:
            info = graph.functions[reached]
            for line, col, description in _float_accumulations(info):
                key = (info.path, line)
                if key in seen:
                    continue
                seen.add(key)
                chain = graph.chain(tree, reached)
                diagnostics.append(
                    Diagnostic(
                        rule="FLOW004",
                        path=info.path,
                        line=line,
                        column=col,
                        message=(
                            f"{FLOW_RULES['FLOW004']}: {description} in "
                            f"{info.name!r}, reachable from digest function "
                            f"{root.rsplit('.', 1)[-1]!r} via "
                            f"{_chain_text(chain)}"
                        ),
                        symbol=reached,
                        chain=tuple(chain),
                    )
                )
    return diagnostics


def _float_accumulations(info: FunctionInfo) -> list[tuple[int, int, str]]:
    found: list[tuple[int, int, str]] = []
    for node in ast.walk(info.node):
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and _has_float_arithmetic(node.value)
        ):
            found.append(
                (node.lineno, node.col_offset, "float augmented accumulation")
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and any(_has_float_arithmetic(arg) for arg in node.args)
        ):
            found.append(
                (node.lineno, node.col_offset, "sum() over float expressions")
            )
    return found
