"""Golden bytes: journal, ledger, audit and trace of fixed scenarios.

The control tier's byte-identity claims (resumed ≡ uninterrupted,
checkpointed ≡ checkpoint-free, same seed ≡ same bytes) are checked
pairwise elsewhere; this file pins the bytes themselves, so a refactor of
the controller, the journal or the recovery path that moves one WAL
record, one audit line, one trace event or one ``seq`` fails here and not
in a hand-run ``diff -rq`` over exported trees.

Every value below was produced by the commit *before* the run-state
refactor (ISSUE 19) and is process-independent: identical under
``PYTHONHASHSEED=1`` and ``=2``.  A change that alters simulated
behaviour on purpose regenerates them with
``PYTHONPATH=src:. python tests/core/test_wal_golden.py`` (from the
repository root) and says so in its description.
"""

import hashlib
import os

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import records_from_rows
from repro.core import journal as wal
from repro.core.controller import ClusterBFTController
from repro.core.recovery import resume_run
from repro.faults.behaviors import (
    CommissionBehavior,
    EquivocateBehavior,
    SlowBehavior,
)
from repro.faults.injection import FaultPlan
from repro.service.loop import run_trace
from repro.service.tenants import parse_trace
from repro.telemetry import Telemetry, to_jsonl

from tests.core import test_checkpoint as ckpt
from tests.core import test_reconfig as geo

TENANTS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "tenants.json"
)


def fingerprint(data: str | bytes) -> tuple[str, int]:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def artifacts(path: str, controller, telemetry) -> dict:
    return {
        "journal": fingerprint(read_bytes(path)),
        "audit": fingerprint(controller.audit.render()),
        "trace": fingerprint(to_jsonl(telemetry.export_records())),
    }


def journaled_run(path, config, script, rows, fault_plan, crash_hook=None):
    """One journaled, traced assured run; returns (controller, telemetry)."""
    inputs = {"in": records_from_rows(rows)}
    telemetry = Telemetry.recording()
    journal = wal.Journal.create(
        path, config, script, inputs, block_bytes=2048, crash_hook=crash_hook
    )
    controller = ClusterBFTController(
        config,
        fault_plan=fault_plan,
        block_bytes=2048,
        telemetry=telemetry,
        journal=journal,
    )
    controller.load_input("in", inputs["in"])
    controller.run_assured(script)
    return controller, telemetry


# -- (a), (b): the checkpoint tier's two-job script behind a slow node ------


def checkpoint_scenario(path, checkpoints):
    config = ckpt.make_config(checkpoints=checkpoints)
    controller, telemetry = journaled_run(
        path, config, ckpt.SCRIPT, ckpt.ROWS, ckpt.slow_node_plan()
    )
    return artifacts(path, controller, telemetry)


# -- (c): commission + equivocation + a straggler, capped escalation --------


def fault_config(checkpoints, min_jobs):
    return SystemConfig(
        cluster=ClusterConfig(
            num_nodes=12, slots_per_node=3, heartbeat_period=0.2
        ),
        bft=ClusterBFTConfig(
            f=1,
            replication=4,
            verification_points=2,
            checkpoints=checkpoints,
            verifier_timeout=6.0,
            max_verifier_timeout=8.0,
            suspicion_threshold=0.6,
            quarantine_threshold=0.3,
            suspicion_min_jobs=min_jobs,
        ),
        seed=20131209,
    )


def fault_plan(commission, equivocator):
    plan = FaultPlan()
    plan.assign("node_0003", SlowBehavior(factor=8.0))
    plan.assign(commission, CommissionBehavior(probability=1.0))
    plan.assign(equivocator, EquivocateBehavior(probability=1.0))
    return plan


def fault_scenario(path, checkpoints=False, late=False):
    """``late`` moves the two Byzantine nodes so that a replica reports
    after its sid's verdict (``late_fault``) and the run ends exhausted;
    without it the run reaches fault, analyzer, eviction, quarantine,
    two reruns and two timeout caps and ends assured."""
    nodes = ("node_0005", "node_0007") if late else ("node_0001", "node_0002")
    controller, telemetry = journaled_run(
        path,
        fault_config(checkpoints, min_jobs=1 if late else 2),
        ckpt.SCRIPT,
        ckpt.ROWS,
        fault_plan(*nodes),
    )
    return artifacts(path, controller, telemetry)


# -- (d): kill inside an attempt, resume from the WAL -----------------------


def resumed_scenario(path, config, plan, kill_seq):
    """Crash right after record ``kill_seq`` is durable, then resume; the
    parent's prefix must survive byte-for-byte under what the resume
    appends."""
    with pytest.raises(wal.ControlTierCrash):
        journaled_run(
            path,
            config,
            ckpt.SCRIPT,
            ckpt.ROWS,
            plan(),
            crash_hook=wal.crash_at(kill_seq),
        )
    prefix = read_bytes(path)
    telemetry = Telemetry.recording()
    recovered = resume_run(path, fault_plan=plan(), telemetry=telemetry)
    assert read_bytes(path).startswith(prefix)
    return artifacts(path, recovered.controller, telemetry)


def checkpoint_resumed(kill_seq):
    """With a 6 s verifier timeout the slow node forces a rerun, and the
    journal reads: 7 ``checkpoint`` (first attempt), 9 ``attempt_end``,
    12 ``digest`` and 15 ``checkpoint`` (second attempt).  A kill at 7
    resumes with no snapshot and one checkpoint to replay; at 12 it
    restores the snapshot and re-executes the second job; at 15 the
    replayed checkpoints cover every output and nothing is re-executed."""
    return lambda path: resumed_scenario(
        path,
        ckpt.make_config(checkpoints=True, timeout=6.0),
        ckpt.slow_node_plan,
        kill_seq,
    )


def faults_resumed(path):
    """Scenario (c) killed on a digest of its third attempt (record 37):
    the restored snapshot carries suspicion, a saturated analyzer, two
    evicted nodes, one quarantined node and one commit to replay."""
    return resumed_scenario(
        path,
        fault_config(False, min_jobs=2),
        lambda: fault_plan("node_0001", "node_0002"),
        37,
    )


# -- (e): two healthy regions and a degrading one ---------------------------


def geo_scenario(path):
    controller, telemetry = journaled_run(
        path, geo.geo_config(), geo.SCRIPT, geo.ROWS, geo.equivocator()
    )
    return artifacts(path, controller, telemetry)


# -- (f), (g): the example tenant trace through the service ledger ----------


def ledger_scenario(path, kill_at=None):
    with open(TENANTS) as handle:
        trace = parse_trace(handle.read(), name="tenants.json")
    if kill_at is not None:
        with pytest.raises(wal.ControlTierCrash):
            run_trace(trace, ledger_path=path, crash_hook=wal.crash_at(kill_at))
        prefix = read_bytes(path)
        run_trace(None, ledger_path=path, resume=True)
        assert read_bytes(path).startswith(prefix)
    else:
        run_trace(trace, ledger_path=path)
    return {"ledger": fingerprint(read_bytes(path))}


SCENARIOS = {
    "a-checkpoints": lambda path: checkpoint_scenario(path, True),
    "b-checkpoint-free": lambda path: checkpoint_scenario(path, False),
    "c-faults": fault_scenario,
    "c-faults-checkpoints": lambda path: fault_scenario(path, checkpoints=True),
    "c-faults-late": lambda path: fault_scenario(path, late=True),
    "d-killed-at-07-resumed": checkpoint_resumed(7),
    "d-killed-at-12-resumed": checkpoint_resumed(12),
    "d-killed-at-15-resumed": checkpoint_resumed(15),
    "d-faults-killed-resumed": faults_resumed,
    "e-geo-reconfig": geo_scenario,
    "f-ledger": ledger_scenario,
    "g-ledger-killed-resumed": lambda path: ledger_scenario(path, kill_at=30),
}

#: scenario -> artifact -> (SHA-256, byte length), from the parent's code.
GOLDEN: dict[str, dict[str, tuple[str, int]]] = {
    "a-checkpoints": {
        "audit": (
            "2bb73bfc44376b3fca0b4cf430c50b9f3322e56b3f993bc18af624a570bd77ee",
            411,
        ),
        "journal": (
            "87de0438f5a4e5a3b9d6ea84a8878b08050b340a10e010847edfda1c20024358",
            5525,
        ),
        "trace": (
            "a7f6c1dc1938ae94022b79e19d61752144dd49a9e3994609bd6aec05a94cabc9",
            39912,
        ),
    },
    "b-checkpoint-free": {
        "audit": (
            "922ec70206de83bbb394af11dd5815fffd41884a7126e9b05e7a46b9644e0cbb",
            377,
        ),
        "journal": (
            "640ca00247677ac61cbd9624dc1729036d4dc515a12fee822f2752745fd8b6ff",
            5518,
        ),
        "trace": (
            "8180db53501db5dae84a343bf429e6097dea64ea9593cb5b0175490a4ba983ad",
            39421,
        ),
    },
    "c-faults": {
        "audit": (
            "19035e6f588d526e69cc72d7096b6b468f9cbd121db666c7c8410697b33877b6",
            2078,
        ),
        "journal": (
            "9e3c39bb800d87895a12473f3a95991046c01b35d2f3821948a74c56c678df63",
            10963,
        ),
        "trace": (
            "78b20e59fc3a3c67e0f36926ed795c25f7bc8eb1246331bac917c45c02322bed",
            95915,
        ),
    },
    "c-faults-checkpoints": {
        "audit": (
            "7b6ef1e8e8e4eabdf3a3f39411f224995f135eea54ceffb1e08b05494160ecec",
            2056,
        ),
        "journal": (
            "4c880fe1ad48828b4faa72946860d00095d04512246d8781bffe2300b1458115",
            10842,
        ),
        "trace": (
            "f25cd3644870a88d79e7e861f65dcf108469c2c3dafb3da104a834df565eb707",
            96316,
        ),
    },
    "c-faults-late": {
        "audit": (
            "137ba0e183aece113207442502b03bc4aa2afcf95f19a824f358e4b11ab833d6",
            2373,
        ),
        "journal": (
            "50e685754454643498463dd9b154c97a6ecf653cf29258fd4b33d77fe472f3ab",
            10665,
        ),
        "trace": (
            "8e24dc0329dc6d6314c33229793e56fcce1e33df321f2a0eda5c064e757ffc3d",
            72696,
        ),
    },
    "d-faults-killed-resumed": {
        "audit": (
            "3ddacdfef28f67ea6ee546e12fd0c852cb2c12aeeac9baac99ddff83f3edebec",
            369,
        ),
        "journal": (
            "96476f29be28b73528cccd1b4fb79572b6aa159f0c8e158cdc4f966b7a0452b6",
            11183,
        ),
        "trace": (
            "8a2225bda373553e86000ae547b4b52050ddd0308c450db0057cc11081455dc1",
            33742,
        ),
    },
    "d-killed-at-07-resumed": {
        "audit": (
            "4966d71149451221ad493d486c2260753086f75709638dd9e06bdad57268fe95",
            233,
        ),
        "journal": (
            "a8add89ee87331ce562f901bed7ad3ac5544f71397a9f28ac8339d379ead249a",
            5552,
        ),
        "trace": (
            "334b87270249bf4264f0500302938712f9d0827e9d2d5a595186565d11b93c8c",
            21532,
        ),
    },
    "d-killed-at-12-resumed": {
        "audit": (
            "0d0f1eac8f0cf4ef936b874bf60f3b4e2996bbdda342a2814a813372db2425f9",
            321,
        ),
        "journal": (
            "89f51d56cea407aa65b43b38093fc07de0eba9b1aa350c5a90b297ecf27aed22",
            6827,
        ),
        "trace": (
            "eaaf6c92fe3bca0e42451e36f98ddc28aac8e8f2d7f1ae18f8fa573a21f95362",
            24962,
        ),
    },
    "d-killed-at-15-resumed": {
        "audit": (
            "5d00f842380baa1f8e2618102fba82f28fb1c9759bad6b45cc67e3fd02114db8",
            65,
        ),
        "journal": (
            "be34a27361aaa85060cef829bf239de0774ff6b55262dc53360bccd5bc21abe9",
            5672,
        ),
        "trace": (
            "ec531a619f51c9869a88bd41d03436b3674d879d6be1c27bb8e0f923312657ba",
            1622,
        ),
    },
    "e-geo-reconfig": {
        "audit": (
            "963ed396b558feb7069a688cdf19ef3194f68d371c89d79fae30d24f0780f6a9",
            561,
        ),
        "journal": (
            "658562acbc3ea9459f358545792950028ca5b5ea3b36934be4d0d63c68fb55c5",
            6916,
        ),
        "trace": (
            "6191986bad90ae5e2f91ed8bd2cd75ceb796ebc03b7763c3f30db2707cd0a2a6",
            34666,
        ),
    },
    "f-ledger": {
        "ledger": (
            "12c7602b038095ae5c81db04b989d5f856f404677ef0df69274df256cd9fe831",
            22325,
        ),
    },
    "g-ledger-killed-resumed": {
        "ledger": (
            "12c7602b038095ae5c81db04b989d5f856f404677ef0df69274df256cd9fe831",
            22325,
        ),
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bytes_match_the_parent(name, tmp_path):
    produced = SCENARIOS[name](str(tmp_path / "scenario.wal"))
    assert produced == GOLDEN[name]


def test_scenarios_reach_the_record_kinds_they_claim(tmp_path):
    """The pins are only worth what the scenarios exercise."""

    def kinds(name):
        path = str(tmp_path / f"{name}.wal")
        SCENARIOS[name](path)
        return [record["kind"] for record in wal.read_journal(path)[0]]

    assert kinds("a-checkpoints").count(wal.CHECKPOINT) == 2
    assert wal.CHECKPOINT not in kinds("b-checkpoint-free")
    faults = kinds("c-faults")
    assert {
        wal.FAULT, wal.ANALYZER, wal.EVICTION, wal.QUARANTINE, wal.COMMIT
    } <= set(faults)
    assert faults.count(wal.ATTEMPT_START) == 3
    assert wal.LATE_FAULT in kinds("c-faults-late")
    for seq, kind in ((7, wal.CHECKPOINT), (12, wal.DIGEST), (15, wal.CHECKPOINT)):
        resumed = kinds(f"d-killed-at-{seq:02d}-resumed")
        assert resumed[seq] == kind
        assert resumed[seq + 1] == wal.RESUME
    resumed = kinds("d-faults-killed-resumed")
    assert resumed[37:39] == [wal.DIGEST, wal.RESUME]
    assert wal.COMMIT in resumed[:37] and wal.EVICTION in resumed[:37]
    assert wal.RECONFIG in kinds("e-geo-reconfig")


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        pprint.pprint(
            {
                name: SCENARIOS[name](os.path.join(workdir, f"{name}.wal"))
                for name in sorted(SCENARIOS)
            },
            width=100,
        )
