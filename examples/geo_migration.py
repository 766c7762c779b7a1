"""Online replica-set migration across regions, end to end.

A three-region cluster ("slow" runs at half speed and hosts a
persistent equivocator) executes an assured group-count.  Replicated
digests disagree, per-region suspicion crosses the configured
threshold mid-run, and the controller migrates the implicated regions
out: a synced ``reconfig`` WAL record, quarantined members, evacuated
in-flight tasks — while the run still ends assured.  See DESIGN.md
section 13.

``repro run`` has no region flags, so the geo kill-and-resume pair of
``benchmarks/twin.py`` drives this script instead::

    python examples/geo_migration.py run ref.wal ref.json
    REPRO_JOURNAL_KILL_AT=<seq> python examples/geo_migration.py run crash.wal
    python examples/geo_migration.py resume crash.wal resumed.json

where ``<seq>`` is that of the first ``reconfig`` record of ``ref.wal``.
With ``REPRO_JOURNAL_KILL_AT`` set the process SIGKILLs itself right
after that journal record becomes durable — crashing immediately after
the migration decision — and ``resume`` must replay into the same
placement and byte-identical outputs.
"""

import json
import sys

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import encode_record, records_from_rows
from repro.core import journal as wal
from repro.core.audit import RECONFIG
from repro.core.controller import ClusterBFTController
from repro.core.recovery import resume_run
from repro.faults.behaviors import EquivocateBehavior
from repro.faults.injection import FaultPlan

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""

ROWS = [(i % 8, (i * 13) % 997) for i in range(320)]


def config():
    return SystemConfig(
        cluster=ClusterConfig(
            num_nodes=12,
            slots_per_node=3,
            heartbeat_period=0.4,
            regions=(("east", 4, 1.0), ("west", 4, 1.0), ("slow", 4, 0.5)),
            wan_latency_seconds=0.25,
        ),
        bft=ClusterBFTConfig(
            f=1,
            replication=4,
            verification_points=1,
            region_suspicion_threshold=0.2,
            region_min_jobs=2,
        ),
        seed=20131210,
    )


def fault_plan():
    plan = FaultPlan()
    plan.assign("node_0008", EquivocateBehavior(probability=1.0))
    return plan


def dump_outputs(path, outputs):
    canonical = {
        store: [encode_record(record).decode("utf-8") for record in records]
        for store, records in sorted(outputs.items())
    }
    with open(path, "w") as handle:
        json.dump(canonical, handle, sort_keys=True)
        handle.write("\n")


def run(wal_path, outputs_path=None):
    system = config()
    journal = wal.Journal.create(
        wal_path,
        system,
        SCRIPT,
        {"in": records_from_rows(ROWS)},
        block_bytes=2048,
        crash_hook=wal.env_kill_hook(),
    )
    controller = ClusterBFTController(
        system, fault_plan=fault_plan(), block_bytes=2048, journal=journal
    )
    controller.load_input("in", records_from_rows(ROWS))
    result = controller.run_assured(SCRIPT)
    migrated = [e.subject for e in controller.audit.events(kind=RECONFIG)]
    print(
        f"assured={result.assured} latency={result.latency:.3f} "
        f"migrated={','.join(migrated) or '-'}"
    )
    if not migrated:
        raise SystemExit("expected a mid-run migration; none happened")
    if outputs_path:
        dump_outputs(outputs_path, result.outputs)


def resume(wal_path, outputs_path):
    recovered = resume_run(wal_path, fault_plan=fault_plan())
    print(f"resumed assured={recovered.result.assured}")
    dump_outputs(outputs_path, recovered.result.outputs)


def main(argv):
    if len(argv) < 3:
        raise SystemExit(__doc__)
    mode, wal_path = argv[1], argv[2]
    if mode == "run":
        run(wal_path, argv[3] if len(argv) > 3 else None)
    elif mode == "resume":
        resume(wal_path, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv)
