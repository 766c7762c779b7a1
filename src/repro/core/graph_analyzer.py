"""Graph analyzer: verification-point selection (paper §4.1).

Implements the two functions of the paper's Fig. 3 and Fig. 5:

* ``INPUT_RATIO(v)`` — the fraction of input data flowing through a
  vertex: LOAD vertices get ``input_size / total_input_size``; any other
  vertex gets the sum of its parents' ratios normalized by the total
  ratio of the previous level.
* ``MARK(V, n)`` — greedily select ``n`` verification points maximizing
  ``score(v) = ir[v] + min(v, M)`` where ``min(v, M)`` is the edge
  distance from ``v`` to the nearest already-marked vertex.

Interpretation notes (the paper leaves two details open):

1. ``min(v, M)`` with ``M`` empty: we measure distance to the nearest
   LOAD vertex — data at rest in the trusted store is implicitly
   verified, so the first point is pushed away from the (already
   trusted) inputs, exactly the "mid point" behaviour the Fig. 4
   walkthrough describes.
2. Distance is undirected shortest-path ("number of edges between v and
   the vertex closest to v in M").

Under the *strong* adversary model only vertices whose output crosses a
job boundary qualify (§4.1): blocking operators and STORE inputs.  Under
the *weak* model every non-sink vertex qualifies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import ceil, fsum

from repro.common.config import ADVERSARY_STRONG, ADVERSARY_WEAK
from repro.common.errors import ConfigError, PlanError
from repro.dataflow.operators import VerifyOp
from repro.dataflow.plan import LogicalPlan, VertexId


def input_ratios(plan: LogicalPlan, input_sizes: dict[str, int]) -> dict[VertexId, float]:
    """Paper Fig. 5: the ratio of input data flowing through each vertex.

    ``input_sizes`` maps LOAD paths to their byte sizes (the trusted DFS
    knows these).  Missing paths raise: the analyzer must not silently
    treat an unknown input as empty.
    """
    ratios: dict[VertexId, float] = {}
    levels = plan.levels()
    loads = plan.load_paths()

    total_input = 0
    for path in loads.values():
        if path not in input_sizes:
            raise PlanError(f"no input size known for {path!r}")
        if input_sizes[path] < 0:
            raise PlanError(f"negative input size for {path!r}")
        total_input += input_sizes[path]
    if total_input == 0:
        # Degenerate case (all inputs empty): every ratio is zero and the
        # marker falls back to pure distance scoring.
        return {vid: 0.0 for vid in plan.topological_order()}

    # Group vertices by level for the denominator of the recursive case.
    by_level: dict[int, list[VertexId]] = {}
    for vid, level in levels.items():
        by_level.setdefault(level, []).append(vid)

    for vid in plan.topological_order():
        if vid in loads:
            ratios[vid] = input_sizes[loads[vid]] / total_input
            continue
        parents = plan.parents(vid)
        numerator = sum(ratios[p] for p in parents)
        previous_level = levels[vid] - 1
        denominator = sum(
            ratios[other]
            for other in by_level.get(previous_level, [])
            if other in ratios
        )
        ratios[vid] = numerator / denominator if denominator > 0 else numerator
    return ratios


def undirected_distances(plan: LogicalPlan, origins: set[VertexId]) -> dict[VertexId, int]:
    """BFS edge distance from the nearest origin, ignoring direction."""
    distances: dict[VertexId, int] = {vid: 0 for vid in origins}
    queue = deque(origins)
    while queue:
        vid = queue.popleft()
        for neighbor in plan.inputs(vid) + plan.outputs(vid):
            if neighbor not in distances:
                distances[neighbor] = distances[vid] + 1
                queue.append(neighbor)
    return distances


def candidate_vertices(plan: LogicalPlan, adversary: str) -> list[VertexId]:
    """Vertices eligible to carry a verification point."""
    candidates: list[VertexId] = []
    for vid in plan.topological_order():
        op = plan.op(vid)
        if op.is_sink or isinstance(op, VerifyOp):
            continue
        if adversary == ADVERSARY_WEAK:
            candidates.append(vid)
        elif adversary == ADVERSARY_STRONG:
            # Only data flowing between jobs can be checked: outputs of
            # blocking operators (job tails) and inputs of stores.
            feeds_store = any(plan.op(child).is_sink for child in plan.outputs(vid))
            if op.is_blocking or feeds_store:
                candidates.append(vid)
        else:
            raise ConfigError(f"unknown adversary model: {adversary!r}")
    return candidates


@dataclass
class MarkerResult:
    """Outcome of the marker function."""

    marked: list[VertexId]
    scores: list[float]
    input_ratios: dict[VertexId, float] = field(default_factory=dict)


def mark(
    plan: LogicalPlan,
    n: int,
    ratios: dict[VertexId, float],
    candidates: list[VertexId] | None = None,
) -> MarkerResult:
    """Paper Fig. 3 MARK(V, n): greedily pick ``n`` verification points."""
    if candidates is None:
        candidates = [
            vid for vid in plan.topological_order() if not plan.op(vid).is_sink
        ]
    if n > len(candidates):
        n = len(candidates)

    loads = set(plan.load_paths())
    marked: list[VertexId] = []
    scores: list[float] = []
    for _ in range(n):
        origins = set(marked) if marked else loads
        distance = undirected_distances(plan, origins)
        best_vid: VertexId | None = None
        best_score = float("-inf")
        for vid in candidates:
            if vid in marked:
                continue
            score = ratios.get(vid, 0.0) + distance.get(vid, 0)
            if score > best_score:
                best_vid = vid
                best_score = score
        if best_vid is None:
            break
        marked.append(best_vid)
        scores.append(best_score)
    return MarkerResult(marked=marked, scores=scores, input_ratios=dict(ratios))


def ancestor_sets(plan: LogicalPlan) -> dict[VertexId, set[VertexId]]:
    """Every vertex's transitive upstream set (exclusive of itself)."""
    ancestors: dict[VertexId, set[VertexId]] = {}
    for vid in plan.topological_order():
        upstream: set[VertexId] = set()
        for parent in plan.parents(vid):
            upstream |= ancestors[parent]
            upstream.add(parent)
        ancestors[vid] = upstream
    return ancestors


def mark_by_rerun_cost(
    plan: LogicalPlan,
    density: float,
    ratios: dict[VertexId, float],
    candidates: list[VertexId],
) -> MarkerResult:
    """Expected-rerun-cost placement (``checkpoint_density``).

    A verification point at ``v`` lets a rerun *reuse* everything
    upstream of ``v`` once its output commits, so the work a point
    saves is the weight of its ancestor closure (each vertex weighted
    ``1 + input_ratio`` — recomputing a vertex costs at least one task
    plus data volume).  A point only pays off on failures *downstream*
    of it, so an already-marked vertex discounts exactly the candidates
    it is an ancestor of (the upstream segment it already saves) —
    never candidates upstream of itself, whose commits protect reruns
    the deeper point cannot (the deeper point has not committed yet
    when the failure lands between them).  Greedily pick the candidate
    with the largest marginal saving until
    ``ceil(density * len(candidates))`` points are placed or no
    candidate saves anything new.

    Deterministic: candidates are scanned in their given (sorted)
    order and ties keep the first maximum, so the same plan + density
    always yields the same markers — reruns and resumed runs re-derive
    identical instrumentation.
    """
    if not 0.0 <= density <= 1.0:
        raise ConfigError(f"checkpoint density out of range: {density!r}")
    if density == 0.0 or not candidates:
        return MarkerResult(marked=[], scores=[], input_ratios=dict(ratios))
    budget = max(1, ceil(density * len(candidates)))
    ancestors = ancestor_sets(plan)
    marked: list[VertexId] = []
    scores: list[float] = []
    for _ in range(budget):
        best_vid: VertexId | None = None
        best_gain = 0.0
        for vid in candidates:
            if vid in marked:
                continue
            covered: set[VertexId] = set()
            for other in marked:
                if other in ancestors[vid]:
                    covered |= ancestors[other] | {other}
            uncovered = (ancestors[vid] | {vid}) - covered
            # fsum: exact float summation, so the gain is independent of
            # set-iteration order (plain sum() would not be).
            gain = len(uncovered) + fsum(
                ratios.get(upstream, 0.0) for upstream in uncovered
            )
            if gain > best_gain:
                best_vid = vid
                best_gain = gain
        if best_vid is None:
            break
        marked.append(best_vid)
        scores.append(best_gain)
    return MarkerResult(marked=marked, scores=scores, input_ratios=dict(ratios))


def analyze(
    plan: LogicalPlan,
    input_sizes: dict[str, int],
    n: int,
    adversary: str = ADVERSARY_STRONG,
) -> MarkerResult:
    """End-to-end analysis: ratios → candidates → marker selection."""
    ratios = input_ratios(plan, input_sizes)
    candidates = candidate_vertices(plan, adversary)
    return mark(plan, n, ratios, candidates)
