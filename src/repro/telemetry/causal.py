"""Causal DAG reconstruction from a trace (``repro trace --causal``).

With causal tracing enabled (``Telemetry(causal=True)``), every
simulated message carries a paired ``net.send``/``net.recv`` (or
``digest.send``/``digest.recv``) event: the send event's trace id is
the message id, the recv event refers back to it via its ``mid``
attribute, and everything a handler records during delivery parents to
the recv event.  Together with ordinary span parentage that yields one
DAG per run — job submit → task dispatch → pre-prepare/prepare/commit →
digest cross-check → commit — that this module reconstructs:

* :class:`CausalGraph` — reads the trace's
  :class:`~repro.telemetry.analysis.TraceModel`, resolves message edges,
  finds orphans (records whose parent id never appears in the trace);
* :meth:`CausalGraph.commit_chains` — for every committed digest
  (``audit.commit``), the message-granular chain back to the run root,
  with per-replica digest-round slack and the critical (zero-slack)
  arrival marked;
* :meth:`CausalGraph.slowest_links` / :meth:`protocol_rounds` — which
  network link, and which protocol round, the time went to;
* :func:`to_chrome_flow` — the Chrome ``trace_event`` view with flow
  arrows (``ph: s/f``) binding each send to its delivery.

Everything here is derived from simulated-time record fields only, so
the analysis of a given trace is deterministic and byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.analysis import TraceModel
from repro.telemetry.export import to_chrome_trace

#: Event names carrying a ``mid`` back-reference to their send event.
RECV_EVENTS = ("net.recv", "digest.recv")
SEND_EVENTS = ("net.send", "digest.send")

COMMIT_EVENT = "audit.commit"


@dataclass(frozen=True)
class Hop:
    """One step of a causal chain (root-first order)."""

    kind: str  # "span" | "event" | "message"
    ref: int  # trace record id
    name: str
    at: float  # span start / event ts (sim seconds)
    duration: float  # span duration, or message latency for "message"
    detail: str  # human label (node, sid, link, ...)

    def render(self) -> str:
        extra = f" [{self.duration:.6f}s]" if self.duration else ""
        detail = f" {self.detail}" if self.detail else ""
        return f"{self.name}{detail} @{self.at:.6f}{extra}"


@dataclass(frozen=True)
class RoundSlack:
    """One replica's digest arrival relative to the round's critical one."""

    replica: int
    arrival: float
    slack: float  # seconds the arrival could slip without delaying it
    critical: bool


@dataclass
class CommitChain:
    """The causal chain behind one committed digest."""

    sid: str
    committed_at: float
    hops: list[Hop] = field(default_factory=list)  # root-first
    round_slack: list[RoundSlack] = field(default_factory=list)
    complete: bool = False  # reaches a parentless root span
    missing: list[int] = field(default_factory=list)  # dangling parent ids


@dataclass(frozen=True)
class LinkStat:
    """Aggregate latency of one directed network link."""

    sender: str
    receiver: str
    messages: int
    max_latency: float
    total_latency: float

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.messages if self.messages else 0.0


@dataclass(frozen=True)
class ProtocolRound:
    """One quorum round of same-kind protocol messages (e.g. all the
    Prepare messages of slot 4): its arrival spread is the slack the
    slowest message consumed."""

    kind: str
    seq: int
    messages: int
    first_arrival: float
    last_arrival: float

    @property
    def spread(self) -> float:
        return self.last_arrival - self.first_arrival


class CausalGraph:
    """Index of a trace's spans/events with message edges resolved."""

    def __init__(self, records: list[dict] | TraceModel) -> None:
        trace = TraceModel.of(records)
        self.trace = trace
        #: id -> record, for every span and event.
        self.nodes: dict[int, dict] = trace.ids
        #: recv event id -> send event id (``mid`` edges).
        self.message_edge: dict[int, int] = {}
        #: sid -> verify span records (register order).
        self._verify_by_sid: dict[str, list[dict]] = {}
        #: sid -> digest.recv event records.
        self._digest_recv_by_sid: dict[str, list[dict]] = {}
        self.commits: list[dict] = trace.events_by_name.get(COMMIT_EVENT, [])
        self.span_count = trace.span_count
        self.event_count = len(trace.events)
        for name in RECV_EVENTS:
            for record in trace.events_by_name.get(name, ()):
                attrs = record.get("attrs") or {}
                if attrs.get("mid"):
                    self.message_edge[record["id"]] = attrs["mid"]
                if name == "digest.recv" and attrs.get("sid"):
                    self._digest_recv_by_sid.setdefault(attrs["sid"], []).append(
                        record
                    )
        for span in trace.spans.get("verify", ()):
            sid = (span.get("attrs") or {}).get("sid")
            if sid:
                self._verify_by_sid.setdefault(sid, []).append(span)

    # -- structural health ----------------------------------------------

    def orphans(self) -> list[int]:
        """Ids of records whose parent id never appears in the trace."""
        out = []
        for record_id in sorted(self.nodes):
            parent = self.nodes[record_id].get("parent")
            if parent and parent not in self.nodes:
                out.append(record_id)
        return out

    # -- chains ----------------------------------------------------------

    def _walk_parents(self, record: dict) -> tuple[list[Hop], bool, list[int]]:
        """Follow parent/message edges up to a root; returns root-first
        hops, whether a parentless root was reached, and any dangling
        parent ids encountered."""
        hops: list[Hop] = []
        missing: list[int] = []
        seen: set[int] = set()
        current: dict | None = record
        while current is not None:
            rid = current["id"]
            if rid in seen:
                break  # cycle guard (malformed trace)
            seen.add(rid)
            hops.append(_hop_for(current))
            send_id = self.message_edge.get(rid)
            if send_id is not None:
                send = self.nodes.get(send_id)
                if send is None:
                    missing.append(send_id)
                    return list(reversed(hops)), False, missing
                # Represent the network hop itself as a message hop.
                hops.append(
                    Hop(
                        kind="message",
                        ref=send_id,
                        name=current.get("name", "").replace(".recv", ""),
                        at=send.get("ts", 0.0),
                        duration=current.get("ts", 0.0) - send.get("ts", 0.0),
                        detail=_link_label(send),
                    )
                )
                current = send
                continue
            parent = current.get("parent")
            if not parent:
                return list(reversed(hops)), True, missing
            nxt = self.nodes.get(parent)
            if nxt is None:
                missing.append(parent)
                return list(reversed(hops)), False, missing
            current = nxt
        return list(reversed(hops)), False, missing

    def commit_chains(self) -> list[CommitChain]:
        """One chain per ``audit.commit``, joined to its verify span and
        the critical digest arrival, then walked to the run root."""
        chains: list[CommitChain] = []
        for commit in self.commits:
            sid = (commit.get("attrs") or {}).get("subject", "")
            committed_at = commit.get("ts", 0.0)
            chain = CommitChain(sid=sid, committed_at=committed_at)
            verify = self._verify_for(sid, committed_at)
            recvs = self._decisive_recvs(sid, verify)
            chain.round_slack = _round_slack(recvs)
            critical = recvs[-1] if recvs else None
            anchor = critical if critical is not None else verify
            if anchor is not None:
                hops, complete, missing = self._walk_parents(anchor)
                chain.hops = hops
                chain.complete = complete
                chain.missing = missing
            if verify is not None:
                chain.hops.append(_hop_for(verify))
            chain.hops.append(_hop_for(commit))
            chains.append(chain)
        return chains

    def _verify_for(self, sid: str, committed_at: float) -> dict | None:
        candidates = [
            span
            for span in self._verify_by_sid.get(sid, [])
            if span.get("start", 0.0) <= committed_at
        ]
        return candidates[-1] if candidates else None

    def _decisive_recvs(self, sid: str, verify: dict | None) -> list[dict]:
        """Digest arrivals that fed the verdict: the last recv per
        replica at or before the verify span's decision time, in arrival
        order (the final one is the critical arrival)."""
        deadline = verify.get("end") if verify is not None else None
        last_per_replica: dict[int, dict] = {}
        for recv in self._digest_recv_by_sid.get(sid, []):
            if deadline is not None and recv.get("ts", 0.0) > deadline:
                continue
            replica = (recv.get("attrs") or {}).get("replica", -1)
            last_per_replica[replica] = recv
        return sorted(
            last_per_replica.values(), key=lambda r: (r.get("ts", 0.0), r["id"])
        )

    # -- attribution ------------------------------------------------------

    def slowest_links(self, top: int = 8) -> list[LinkStat]:
        stats: dict[tuple[str, str], list[float]] = {}
        for recv_id, send_id in sorted(self.message_edge.items()):
            recv = self.nodes.get(recv_id)
            send = self.nodes.get(send_id)
            if recv is None or send is None:
                continue
            attrs = send.get("attrs") or {}
            sender = str(attrs.get("sender", attrs.get("node", "?")))
            receiver = str((recv.get("attrs") or {}).get("receiver", "trusted-tier"))
            stats.setdefault((sender, receiver), []).append(
                recv.get("ts", 0.0) - send.get("ts", 0.0)
            )
        links = [
            LinkStat(
                sender=sender,
                receiver=receiver,
                messages=len(latencies),
                max_latency=max(latencies),
                total_latency=sum(latencies),
            )
            for (sender, receiver), latencies in sorted(stats.items())
        ]
        links.sort(key=lambda link: (-link.max_latency, link.sender, link.receiver))
        return links[:top]

    def protocol_rounds(self) -> list[ProtocolRound]:
        """Quorum rounds of protocol messages grouped by (kind, seq)."""
        rounds: dict[tuple[str, int], list[float]] = {}
        for recv_id, send_id in sorted(self.message_edge.items()):
            recv = self.nodes.get(recv_id)
            send = self.nodes.get(send_id)
            if recv is None or send is None or recv.get("name") != "net.recv":
                continue
            attrs = send.get("attrs") or {}
            seq = attrs.get("seq")
            if seq is None:
                continue
            rounds.setdefault((attrs.get("kind", "?"), seq), []).append(
                recv.get("ts", 0.0)
            )
        return [
            ProtocolRound(
                kind=kind,
                seq=seq,
                messages=len(arrivals),
                first_arrival=min(arrivals),
                last_arrival=max(arrivals),
            )
            for (kind, seq), arrivals in sorted(rounds.items())
        ]


def _hop_for(record: dict) -> Hop:
    attrs = record.get("attrs") or {}
    if record.get("type") == "span":
        start = record.get("start", 0.0)
        end = record.get("end", start)
        detail = str(
            attrs.get("sid")
            or attrs.get("job_id")
            or attrs.get("script_id")
            or attrs.get("node")
            or ""
        )
        if record.get("name") == "task":
            detail = f"{attrs.get('kind', '?')}{attrs.get('index', '?')}@{attrs.get('node', '?')}"
        return Hop(
            kind="span",
            ref=record["id"],
            name=record.get("name", ""),
            at=start,
            duration=(end - start) if end is not None else 0.0,
            detail=detail,
        )
    detail = str(attrs.get("subject") or attrs.get("sid") or attrs.get("node") or "")
    return Hop(
        kind="event",
        ref=record["id"],
        name=record.get("name", ""),
        at=record.get("ts", 0.0),
        duration=0.0,
        detail=detail,
    )


def _link_label(send: dict) -> str:
    attrs = send.get("attrs") or {}
    sender = attrs.get("sender", attrs.get("node", "?"))
    receiver = attrs.get("receiver", "trusted-tier")
    return f"{sender}->{receiver}"


def _round_slack(recvs: list[dict]) -> list[RoundSlack]:
    if not recvs:
        return []
    critical_ts = recvs[-1].get("ts", 0.0)
    out = []
    for recv in recvs:
        arrival = recv.get("ts", 0.0)
        out.append(
            RoundSlack(
                replica=(recv.get("attrs") or {}).get("replica", -1),
                arrival=arrival,
                slack=critical_ts - arrival,
                critical=recv is recvs[-1],
            )
        )
    return out


def build_causal(records: list[dict] | TraceModel) -> CausalGraph:
    """Build the causal graph for a record stream."""
    return CausalGraph(records)


def render_causal(graph: CausalGraph, top_links: int = 8) -> str:
    """Deterministic text rendering of the causal analysis."""
    lines: list[str] = []
    orphans = graph.orphans()
    lines.append(
        f"causal graph: {graph.span_count} spans, {graph.event_count} events, "
        f"{len(graph.message_edge)} message edges, "
        f"{len(graph.commits)} commits, {len(orphans)} orphans"
    )
    if orphans:
        lines.append(
            "  ORPHANS (parent id missing from trace): "
            + ", ".join(str(i) for i in orphans[:16])
        )
    chains = graph.commit_chains()
    if chains:
        lines.append("")
        lines.append(f"commit chains ({len(chains)}):")
    for chain in chains:
        status = "complete" if chain.complete else (
            f"INCOMPLETE (missing ids: {chain.missing})"
        )
        lines.append(
            f"  {chain.sid} committed @{chain.committed_at:.6f} [{status}]"
        )
        lines.append(
            "    " + " -> ".join(hop.render() for hop in chain.hops)
        )
        if chain.round_slack:
            slack_text = "  ".join(
                f"r{s.replica} +{s.slack:.6f}" + ("*" if s.critical else "")
                for s in chain.round_slack
            )
            lines.append(f"    digest-round slack (*=critical): {slack_text}")
    links = graph.slowest_links(top=top_links)
    if links:
        lines.append("")
        lines.append("slowest links (by max latency):")
        for link in links:
            lines.append(
                f"  {link.sender} -> {link.receiver}: "
                f"max {link.max_latency:.6f}s mean {link.mean_latency:.6f}s "
                f"over {link.messages} message(s)"
            )
    rounds = graph.protocol_rounds()
    if rounds:
        lines.append("")
        lines.append("protocol rounds (arrival spread = round slack):")
        for rnd in rounds:
            lines.append(
                f"  {rnd.kind} seq={rnd.seq}: {rnd.messages} message(s), "
                f"spread {rnd.spread:.6f}s "
                f"[{rnd.first_arrival:.6f} .. {rnd.last_arrival:.6f}]"
            )
    return "\n".join(lines) + "\n"


def to_chrome_flow(records: list[dict] | TraceModel) -> dict:
    """Chrome ``trace_event`` document with causal flow arrows.

    The base document is :func:`~repro.telemetry.export.to_chrome_trace`;
    each send/recv pair additionally emits a flow-start (``ph: s``) at
    the send and a binding flow-finish (``ph: f``, ``bp: e``) at the
    delivery, so Perfetto draws the message arrows.
    """
    graph = CausalGraph(records)
    document = to_chrome_trace(graph.trace.records)
    flow_events: list[dict] = []
    for recv_id, send_id in sorted(graph.message_edge.items()):
        recv = graph.nodes.get(recv_id)
        send = graph.nodes.get(send_id)
        if recv is None or send is None:
            continue
        name = send.get("name", "flow")
        flow_events.append(
            {
                "ph": "s",
                "cat": "causal",
                "name": name,
                "id": send_id,
                "ts": send.get("ts", 0.0) * 1e6,
                "pid": 1,
                "tid": 0,
            }
        )
        flow_events.append(
            {
                "ph": "f",
                "bp": "e",
                "cat": "causal",
                "name": name,
                "id": send_id,
                "ts": recv.get("ts", 0.0) * 1e6,
                "pid": 1,
                "tid": 0,
            }
        )
    document["traceEvents"].extend(flow_events)
    return document
