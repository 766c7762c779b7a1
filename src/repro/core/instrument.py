"""Plan instrumentation: inject verification points.

The paper instruments the Pig logical plan with a *verification
function* (a modified Penny agent) that streams the data passing a
chosen vertex through SHA-256 and ships the digest to the trusted
verifier (§4.1, §5.2).  Here that function is the
:class:`~repro.dataflow.operators.VerifyOp` — an identity operator the
MapReduce runtime taps.

Besides the ``n`` marker-selected points, every final output (STORE) is
always instrumented: an output can only be *committed* once f+1 replica
digests of it agree, so the store digest is not optional.  It is taken
by the job that writes the output, also when that job only copies a
relation other operators read too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataflow.operators import VerifyOp
from repro.dataflow.plan import LogicalPlan, VertexId


@dataclass
class VerificationPoint:
    """One instrumented point."""

    vp_id: str
    source_vertex: VertexId  # the vertex whose output stream is digested
    verify_vertex: VertexId  # the injected VerifyOp vertex
    is_output: bool = False  # True for the mandatory store digests


@dataclass
class InstrumentedPlan:
    """A plan clone with VerifyOps plus the bookkeeping to match digests."""

    plan: LogicalPlan
    points: list[VerificationPoint] = field(default_factory=list)

    def vp_ids(self) -> list[str]:
        return [p.vp_id for p in self.points]


def instrument(
    plan: LogicalPlan,
    marked: list[VertexId],
    chunk_records: int = 0,
    include_outputs: bool = True,
) -> InstrumentedPlan:
    """Return an instrumented *clone* of ``plan``.

    ``marked`` are the vertices chosen by the marker function; their
    output streams get a verification point each.  ``chunk_records`` is
    the §6.4 approximation-accuracy knob ``d`` (0 = one digest per point
    per task).  The original plan is left untouched.
    """
    clone = plan.clone()
    result = InstrumentedPlan(plan=clone)

    for index, vid in enumerate(marked):
        vp_id = f"vp{index}_{clone.op(vid).kind}{vid}"
        verify_vid = clone.insert_after(
            vid, VerifyOp(vp_id, chunk_records=chunk_records)
        )
        result.points.append(
            VerificationPoint(
                vp_id=vp_id, source_vertex=vid, verify_vertex=verify_vid
            )
        )

    if include_outputs:
        for store_vid in clone.sinks():
            source = clone.inputs(store_vid)[0]
            if not isinstance(clone.op(source), VerifyOp):
                vp_id = f"vpout_{store_vid}"
                verify_vid = clone.insert_after(
                    source, VerifyOp(vp_id, chunk_records=chunk_records)
                )
                result.points.append(
                    VerificationPoint(vp_id, source, verify_vid, is_output=True)
                )
                source = verify_vid
            if len(clone.outputs(source)) > 1:
                # A relation other operators also read is materialised
                # once, and its STORE compiles to a job copying it: that
                # job digests what it writes, or no verdict covers it.
                vp_id = f"vpcopy_{store_vid}"
                verify_vid = clone.add(
                    VerifyOp(vp_id, chunk_records=chunk_records), [source]
                )
                clone.set_inputs(store_vid, [verify_vid])
                result.points.append(
                    VerificationPoint(vp_id, source, verify_vid, is_output=True)
                )

    clone.validate()
    return result
