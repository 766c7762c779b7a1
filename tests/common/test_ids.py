"""Tests for typed identifier factories."""

import pytest

from repro.common.ids import IdFactory, task_job, task_kind


class TestIdFactory:
    def test_ids_are_deterministic_across_factories(self):
        a, b = IdFactory(), IdFactory()
        assert [a.job_id() for _ in range(3)] == [b.job_id() for _ in range(3)]

    def test_counters_are_independent_per_kind(self):
        factory = IdFactory()
        factory.job_id()
        factory.job_id()
        assert factory.script_id() == "script_0000"
        assert factory.node_id() == "node_0000"

    def test_job_ids_are_unique(self):
        factory = IdFactory()
        ids = {factory.job_id() for _ in range(100)}
        assert len(ids) == 100

    def test_task_id_embeds_job_kind_index(self):
        factory = IdFactory()
        job = factory.job_id()
        task = factory.task_id(job, "m", 7)
        assert task == f"{job}_m_000007"


class TestTaskIdParsing:
    def test_task_kind_map(self):
        assert task_kind("job_000001_m_000003") == "map"

    def test_task_kind_reduce(self):
        assert task_kind("job_000001_r_000000") == "reduce"

    def test_task_job_roundtrip(self):
        factory = IdFactory()
        job = factory.job_id()
        assert task_job(factory.task_id(job, "r", 2)) == job

    def test_task_kind_rejects_garbage(self):
        with pytest.raises(ValueError):
            task_kind("not-a-task")

    def test_task_kind_rejects_wrong_marker(self):
        with pytest.raises(ValueError):
            task_kind("job_0001_x_000001")
