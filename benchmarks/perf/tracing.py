"""Span tracing installed from outside the program.

The benchmark owns every wrapper: for the length of one traced
repetition it replaces the program's public layer entry points with
timing wrappers — on the name the *caller* resolves, so a
``from x import f`` in the calling module is patched there too — and
puts the originals back afterwards.  Nothing in ``src/`` knows it is
being traced.

A span is ``(name, start, end, parent)``; a layer's **self time** is
its spans' durations minus the part covered by child spans, so the
layers tile the root span exactly.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter

ROOT = "harness.rep"

#: span name -> [(module, owner class or None, attribute)].  A function
#: appears once per module that binds its name.
TARGETS: dict[str, list[tuple[str, str | None, str]]] = {
    "core.controller": [
        ("repro.core.controller", "ClusterBFTController", "run_assured"),
        ("repro.core.controller", "ClusterBFTController", "run_plain"),
    ],
    "core.prepare": [("repro.core.request_handler", "RequestHandler", "prepare")],
    "core.verifier": [
        ("repro.core.verifier", "Verifier", "register"),
        ("repro.core.verifier", "Verifier", "on_report"),
        ("repro.core.verifier", "Verifier", "replica_completed"),
    ],
    "core.journal": [
        ("repro.core.journal", "Journal", "create"),
        ("repro.core.journal", "Journal", "append"),
        ("repro.core.journal", "Journal", "close"),
    ],
    "dataflow.parse": [
        ("repro.dataflow.piglatin", None, "parse_script"),
        ("repro.core.request_handler", None, "parse_script"),
    ],
    "dataflow.pipeline": [("repro.mapreduce.runtime", None, "run_pipeline")],
    "compiler.compile": [
        ("repro.compiler.mr_compiler", None, "compile_plan"),
        ("repro.core.request_handler", None, "compile_plan"),
    ],
    "mapreduce.map_task": [
        ("repro.mapreduce.runtime", None, "execute_map_task"),
        ("repro.mapreduce.engine", None, "execute_map_task"),
    ],
    "mapreduce.reduce_task": [
        ("repro.mapreduce.runtime", None, "execute_reduce_task"),
        ("repro.mapreduce.engine", None, "execute_reduce_task"),
    ],
    "mapreduce.scheduler": [
        ("repro.mapreduce.scheduler", "NaiveScheduler", "assign"),
        ("repro.mapreduce.scheduler", "ClusterBFTScheduler", "assign"),
        ("repro.mapreduce.scheduler", "FairShareScheduler", "assign"),
    ],
    "common.digest": [
        ("repro.common.hashing", "StreamingDigest", "update_all"),
        ("repro.common.hashing", "StreamingDigest", "finalize"),
    ],
    "storage.dfs": [
        ("repro.storage.dfs", "TrustedDFS", "write_file"),
        ("repro.storage.dfs", "TrustedDFS", "append"),
        ("repro.storage.dfs", "TrustedDFS", "read"),
        ("repro.storage.dfs", "TrustedDFS", "read_block"),
    ],
    "simulation.loop": [("repro.simulation.events", "EventLoop", "step")],
    "service.loop": [("repro.service.loop", None, "run_trace")],
    "service.admission": [
        ("repro.service.admission", "AdmissionController", "decide"),
        ("repro.service.admission", "AdmissionController", "note_admitted"),
        ("repro.service.admission", "AdmissionController", "note_finished"),
        ("repro.service.admission", "AdmissionController", "enqueue"),
        ("repro.service.admission", "AdmissionController", "pop_runnable"),
    ],
    "service.ledger": [
        ("repro.service.ledger", "MultiplexedLedger", "create"),
        ("repro.service.ledger", "MultiplexedLedger", "append"),
        ("repro.service.ledger", "MultiplexedLedger", "close"),
    ],
    "bft": [("repro.bft.service", "ReplicatedService", "call")],
}

#: Every module that binds ``encode_value`` (counting wrapper only).
ENCODE_TARGETS = [
    ("repro.common.records", None, "encode_value"),
    ("repro.mapreduce.runtime", None, "encode_value"),
    ("repro.core.journal", None, "encode_value"),
]


class Recorder:
    """In-memory spans and counters of one traced repetition."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.dfs = None  # the TrustedDFS the repetition wrote to

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- aggregation ----------------------------------------------------

    def layer_of(self, index: int) -> str:
        """The layer a span's self time is charged to.  Event-loop steps
        taken inside a ``ReplicatedService.call`` are PBFT message
        handling and belong to ``bft``."""
        name, _, _, parent = self.spans[index]
        while name == "simulation.loop" and parent >= 0:
            if self.spans[parent][0] == "bft":
                return "bft"
            parent = self.spans[parent][3]
        return name

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer (duration minus direct children)."""
        child_total = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        out: dict[str, float] = {}
        for index, (_, start, end, _) in enumerate(self.spans):
            layer = self.layer_of(index)
            out[layer] = out.get(layer, 0.0) + (end - start) - child_total[index]
        return out

    def outermost(self, index: int) -> bool:
        """False for a wrapped function called by another of its layer."""
        name, _, _, parent = self.spans[index]
        return parent < 0 or self.spans[parent][0] != name

    def calls(self, name: str) -> int:
        """Outermost calls into a layer."""
        return sum(
            1
            for index, span in enumerate(self.spans)
            if span[0] == name and self.outermost(index)
        )

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def to_json(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "id": index,
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
                "parent": parent,
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]


# ---------------------------------------------------------------------------
# probes: counts taken at the same boundaries as the spans
# ---------------------------------------------------------------------------


def _sized(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _probe(recorder: Recorder, index: int, attribute: str, args, result) -> None:
    counts = recorder.counts
    name = recorder.spans[index][0]
    if name == "dataflow.pipeline":
        counts["dataflow.pipeline.records"] += _sized(args[0])
    elif name == "common.digest":
        if attribute == "update_all":
            counts["common.digest.records"] += _sized(args[1])
            counts["common.digest.chunks"] += len(result)
        else:
            counts["common.digest.chunks"] += 1
    elif name == "mapreduce.scheduler":
        # The fair-share scheduler returns its inner scheduler's list.
        if recorder.outermost(index):
            counts["mapreduce.scheduler.assign_hits"] += bool(result)
    elif name == "storage.dfs":
        recorder.dfs = args[0]
    elif name == "service.admission" and attribute == "decide":
        counts["service.admission.decisions"] += 1
    elif name == "core.verifier" and attribute == "on_report":
        counts["core.verifier.reports"] += 1
    elif name in ("core.journal", "service.ledger") and attribute == "append":
        counts[f"{name}.appends"] += 1


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _resolve(module_name: str, owner_name: str | None):
    module = importlib.import_module(module_name)
    return getattr(module, owner_name) if owner_name else module


@contextmanager
def patched(targets, make_wrapper):
    """Replace each ``(module, owner, attribute)`` with
    ``make_wrapper(original)`` and restore the originals on exit.
    Class methods declared ``@classmethod`` stay class methods."""
    saved = []
    try:
        for module_name, owner_name, attribute in targets:
            owner = _resolve(module_name, owner_name)
            raw = vars(owner)[attribute]
            saved.append((owner, attribute, raw))
            function = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = make_wrapper(function, attribute)
            wrapper.__wrapped__ = function
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            setattr(owner, attribute, wrapper)
        yield
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)


def leftovers() -> list[str]:
    """Entry points still wrapped; empty outside a repetition."""
    found = []
    for module_name, owner_name, attribute in (
        [target for targets in TARGETS.values() for target in targets]
        + ENCODE_TARGETS
    ):
        raw = vars(_resolve(module_name, owner_name))[attribute]
        if hasattr(getattr(raw, "__func__", raw), "__wrapped__"):
            found.append(f"{module_name}.{owner_name or ''}.{attribute}")
    if type(os.fsync).__name__ != "builtin_function_or_method":
        found.append("os.fsync")
    return found


@contextmanager
def together(*managers):
    """Enter several context managers as one."""
    with ExitStack() as stack:
        for manager in managers:
            stack.enter_context(manager)
        yield


@contextmanager
def spans_installed(recorder: Recorder):
    """Span + probe wrappers on every layer entry point."""
    with ExitStack() as stack:
        for name, targets in TARGETS.items():
            stack.enter_context(patched(targets, _span_wrapper_factory(recorder, name)))
        stack.enter_context(fsync_counted(recorder))
        yield


def _span_wrapper_factory(recorder: Recorder, name: str):
    def make_wrapper(original, attribute):
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
                _probe(recorder, index, attribute, args, result)
                return result
            finally:
                recorder.close(index)

        return wrapper

    return make_wrapper


@contextmanager
def fsync_counted(recorder: Recorder):
    """Count ``os.fsync`` calls against the WAL layer whose span is
    open (the journal and the ledger both call it through ``os``)."""
    original = os.fsync

    def counting_fsync(fd):
        layer = recorder.spans[recorder.stack[-1]][0] if recorder.stack else "other"
        recorder.counts[f"{layer}.fsyncs"] += 1
        return original(fd)

    os.fsync = counting_fsync
    try:
        yield
    finally:
        os.fsync = original


@contextmanager
def fsync_timed(totals: list[float]):
    """Add the seconds spent inside ``os.fsync`` to ``totals[0]``."""
    original = os.fsync

    def timed_fsync(fd):
        start = perf_counter()
        try:
            return original(fd)
        finally:
            totals[0] += perf_counter() - start

    os.fsync = timed_fsync
    try:
        yield
    finally:
        os.fsync = original


@contextmanager
def encode_counted(counts: Counter):
    """Counting-only wrapper on ``encode_value``: top-level calls (one
    per record or key canonically encoded), not its own recursion."""
    depth = [0]

    def make_wrapper(original, _attribute):
        def wrapper(value):
            if depth[0]:
                return original(value)
            counts["common.encode.calls"] += 1
            depth[0] = 1
            try:
                return original(value)
            finally:
                depth[0] = 0

        return wrapper

    with patched(ENCODE_TARGETS, make_wrapper):
        yield


@contextmanager
def tasks_counted(counts: Counter):
    """Count task executions only (no spans)."""

    def make_wrapper(original, _attribute):
        def wrapper(*args, **kwargs):
            counts["tasks"] += 1
            return original(*args, **kwargs)

        return wrapper

    targets = TARGETS["mapreduce.map_task"] + TARGETS["mapreduce.reduce_task"]
    with patched(targets, make_wrapper):
        yield


@contextmanager
def slowed(targets, factor: float, totals: list[float]):
    """Sensitivity shim: every outermost call of a target is followed
    by a busy-wait of ``factor`` times its own duration.  ``totals[0]``
    accumulates the un-slowed seconds spent in the targets."""
    depth = [0]

    def make_wrapper(original, _attribute):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return original(*args, **kwargs)
            depth[0] = 1
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] = 0
                took = perf_counter() - start
                totals[0] += took
                deadline = perf_counter() + factor * took
                while perf_counter() < deadline:
                    pass

        return wrapper

    with patched(targets, make_wrapper):
        yield


@contextmanager
def no_disk_sync(skipped: list[int]):
    """Replace ``os.fsync`` by a counter: ``skipped[0]`` is the number
    of calls made.

    The benchmark may write only inside its checkout, which sits on a
    real disk whose fsync latency (median 0.2-0.4 ms, p90 2.4 ms, some
    330 calls per ``serve_mixed`` repetition) is the single largest
    noise source and measures the disk, not the program.  WAL and ledger
    files are written and flushed as usual; only the wait for the disk
    is taken out.  What the program controls is *how often* it waits:
    the oracle fails a repetition that syncs more often than the pinned
    count, and ``service.ledger.fsync_disk_s`` reports the wait apart.
    """
    original = os.fsync

    def counted(_fd):
        skipped[0] += 1

    os.fsync = counted
    try:
        yield
    finally:
        os.fsync = original
