#!/usr/bin/env python3
"""Fault tolerance walkthrough: the airline multi-store query under a
Byzantine node (paper §6.2 scenario).

One worker node always produces commission failures — it silently
corrupts every record stream it touches.  The example shows:

1. an unreplicated run silently returns wrong results,
2. ClusterBFT masks the fault (f+1 digest quorum picks the correct
   replicas) and the verified output matches a clean run,
3. the faulty replica chain is attributed and the node accumulates
   suspicion; with minimal replication (r = f+1) the script is rerun
   with an escalated replication degree, reusing verified sub-graphs.

Run:  python examples/airline_fault_tolerance.py
"""

from repro import ClusterBFTConfig, ClusterConfig, ClusterBFTController, SystemConfig
from repro.faults import single_commission
from repro.workloads import TOP_AIRPORTS, flight_records

FAULTY_NODE = "node_0000"


def deployment(replication: int) -> SystemConfig:
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=24, slots_per_node=3, heartbeat_period=0.2),
        bft=ClusterBFTConfig(
            f=1,
            replication=replication,
            verification_points=2,
            verifier_timeout=30.0,
        ),
    )


def main() -> None:
    records = flight_records(25_000)

    print("=== 1. Ground truth (clean cluster, no replication) ===")
    clean = ClusterBFTController(deployment(4), block_bytes=128 * 1024)
    clean.load_input("airline/flights", records)
    truth = clean.run_plain(TOP_AIRPORTS)
    top = truth.outputs["airline/top_overall"][:3]
    print(f"top airports overall: {[(r[0], r[1]) for r in top]}")

    print(f"\n=== 2. Unreplicated run with {FAULTY_NODE} Byzantine ===")
    unsafe = ClusterBFTController(
        deployment(4), fault_plan=single_commission(FAULTY_NODE), block_bytes=128 * 1024
    )
    unsafe.load_input("airline/flights", records)
    corrupted = unsafe.run_plain(TOP_AIRPORTS)
    same = corrupted.outputs == truth.outputs
    print(f"output matches ground truth: {same}  <- silent corruption!"
          if not same else "faulty node happened to stay idle this run")

    print("\n=== 3. ClusterBFT with r = 4 masks the fault ===")
    assured = ClusterBFTController(
        deployment(4), fault_plan=single_commission(FAULTY_NODE), block_bytes=128 * 1024
    )
    assured.load_input("airline/flights", records)
    result = assured.run_assured(TOP_AIRPORTS)
    print(f"assured: {result.assured}, attempts: {result.attempts}, "
          f"latency {result.latency:.2f}s")
    print(f"output matches ground truth: {result.outputs == truth.outputs}")
    for outcome in result.outcomes:
        losers = [(f.replica, f.kind) for f in outcome.faults]
        print(f"  {outcome.sid}: {outcome.status}, losers {losers}")
    suspects = sorted(assured.resources.suspicion.suspects())
    print(f"suspicion now covers: {suspects}")
    print(f"fault analyzer: {assured.resources.fault_analyzer.describe()}")

    print("\n=== 4. Optimistic replication (r = f+1 = 2): rerun on fault ===")
    optimistic = ClusterBFTController(
        deployment(2), fault_plan=single_commission(FAULTY_NODE), block_bytes=128 * 1024
    )
    optimistic.load_input("airline/flights", records)
    result = optimistic.run_assured(TOP_AIRPORTS)
    print(f"assured: {result.assured}, attempts: {result.attempts}, "
          f"jobs reused across reruns: {result.reused_jobs}")
    print(f"output matches ground truth: {result.outputs == truth.outputs}")


if __name__ == "__main__":
    main()
