"""Typed identifiers used across the system.

The paper distinguishes *scripts* (Pig programs), *jobs* (MapReduce jobs
compiled from a script), *tasks* (map or reduce tasks inside a job), and
*sub-graph ids* (``sid`` — shared by all replicas of one replicated
sub-graph).  Using small NewType-style wrappers keeps call sites honest
without the runtime weight of full classes.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

NodeId = str
ScriptId = str
JobId = str
TaskId = str
SubGraphId = str
ReplicaId = int


@dataclass
class IdFactory:
    """Deterministic, thread-safe factory for the ids above.

    A fresh factory starts every counter at zero, so two runs of the same
    scenario produce identical id streams — important because scheduling
    decisions key off ids and we want reproducible simulations.
    """

    _counters: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def _next(self, kind: str) -> int:
        with self._lock:
            counter = self._counters.setdefault(kind, itertools.count())
            return next(counter)

    def script_id(self) -> ScriptId:
        return f"script_{self._next('script'):04d}"

    def job_id(self) -> JobId:
        return f"job_{self._next('job'):06d}"

    def task_id(self, job_id: JobId, kind: str, index: int) -> TaskId:
        """Task ids embed their job, kind (``m``/``r``) and index, mirroring
        Hadoop's ``attempt_.._m_000000`` naming."""
        return f"{job_id}_{kind}_{index:06d}"

    def node_id(self) -> NodeId:
        return f"node_{self._next('node'):04d}"


def task_kind(task_id: TaskId) -> str:
    """Return ``'map'`` or ``'reduce'`` from a task id produced by
    :meth:`IdFactory.task_id`."""
    parts = task_id.rsplit("_", 2)
    if len(parts) != 3 or parts[1] not in ("m", "r"):
        raise ValueError(f"not a task id: {task_id!r}")
    return "map" if parts[1] == "m" else "reduce"


def task_job(task_id: TaskId) -> JobId:
    """Return the job id embedded in a task id."""
    parts = task_id.rsplit("_", 2)
    if len(parts) != 3:
        raise ValueError(f"not a task id: {task_id!r}")
    return parts[0]
