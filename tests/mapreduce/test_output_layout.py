"""Each verified output written once (DESIGN.md §28).

The first clean replica of a job to finish writes its output file; the
other clean replicas lay its blocks out again with
``TrustedDFS.write_layout``, and commits and publishes copy blocks with
``TrustedDFS.copy``.  On a hardened two-hop run (r = 4, chunked digests,
checkpoints, a WAL), fault-free and with each kind of node that alters
data, every file the DFS holds — its blocks, their sizes, locations and
records — and every counter must equal the unshared twin's, which
assembles and writes every replica's output itself.
"""

import pytest

from repro.faults.behaviors import (
    CommissionBehavior,
    EquivocateBehavior,
    StorageCorruptionBehavior,
)
from repro.storage.dfs import TrustedDFS
from repro.workloads import TWO_HOP_ANALYSIS
from tests.mapreduce.test_replica_sharing import (
    config,
    fingerprint,
    never_hit,
    plan_for,
    run_script,
)


def dfs_files(dfs):
    """Every file's blocks as stored, and where the cursor stopped."""
    return {
        "files": {
            name: [
                (
                    block.index,
                    block.size_bytes,
                    block.locations,
                    [record.encoded() for record in block.records],
                )
                for block in dfs.file_info(name).blocks
            ]
            for name in dfs.list_files()
        },
        "cursor": dfs._placement_cursor,
        "global": vars(dfs.global_counters),
        "scoped": {scope: vars(c) for scope, c in sorted(dfs._scoped.items())},
    }


class LayoutSpy:
    """How many output files the engine laid out from another replica's
    blocks: ``write_layout`` calls that did not come from a ``copy``."""

    def __init__(self, monkeypatch):
        self.calls = {"write_layout": 0, "copy": 0}
        for name in self.calls:
            monkeypatch.setattr(TrustedDFS, name, self.counting(name))

    def counting(self, name):
        original = getattr(TrustedDFS, name)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    @property
    def laid(self):
        return self.calls["write_layout"] - self.calls["copy"]


FAULTS = {
    "fault-free": None,
    "commission": lambda: CommissionBehavior(1.0),
    "storage-rot": StorageCorruptionBehavior,
    "equivocate": EquivocateBehavior,
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_hardened_twohop_stores_what_the_unshared_twin_stores(
    fault, tmp_path, monkeypatch
):
    cfg = config(checkpoints=True, digest_chunk_records=100, quarantine_threshold=0.3)

    def run(tag):
        make = FAULTS[fault]
        plan = None if make is None else plan_for(make())
        controller, result = run_script(
            TWO_HOP_ANALYSIS, cfg, fault_plan=plan, tmp_path=tmp_path, tag=tag
        )
        return dfs_files(controller.dfs), fingerprint(controller, result)

    spy = LayoutSpy(monkeypatch)
    shared_files, shared = run("shared")
    laid = spy.laid
    never_hit(monkeypatch)
    twin_files, twin = run("twin")

    assert spy.laid == laid, "the unshared twin laid out a replica's file"
    assert shared_files == twin_files
    assert shared == twin
    for suffix in ("jsonl", "wal"):
        assert (tmp_path / f"shared.{suffix}").read_bytes() == (
            tmp_path / f"twin.{suffix}"
        ).read_bytes()
    if fault == "fault-free":
        assert shared["assured"]
        # Two jobs, four replicas each: three of each job's four output
        # files come from the first one's blocks.
        assert laid == 6
