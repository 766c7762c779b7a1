"""Tests for configuration validation and the replication guarantees."""

import pytest

from repro.common.config import (
    ADVERSARY_WEAK,
    GUARANTEE_FULL_BFT,
    GUARANTEE_NO_OMISSION,
    GUARANTEE_OPTIMISTIC,
    ClusterBFTConfig,
    ClusterConfig,
    CostModelConfig,
    SystemConfig,
    replication_for_guarantee,
)
from repro.common.errors import ConfigError


class TestClusterConfig:
    def test_default_is_valid(self):
        ClusterConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"slots_per_node": 0},
            {"heartbeat_period": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs).validate()


class TestCostModelConfig:
    def test_default_is_valid(self):
        CostModelConfig().validate()

    def test_rejects_zero_rate(self):
        with pytest.raises(ConfigError):
            CostModelConfig(map_throughput_bps=0).validate()

    def test_rejects_negative_startup(self):
        with pytest.raises(ConfigError):
            CostModelConfig(task_startup_seconds=-1).validate()


class TestGuarantees:
    """Paper §3.3 'Variable replication': r ∈ {f+1, 2f+1, 3f+1}."""

    @pytest.mark.parametrize(
        "guarantee,f,expected",
        [
            (GUARANTEE_OPTIMISTIC, 1, 2),
            (GUARANTEE_NO_OMISSION, 1, 3),
            (GUARANTEE_FULL_BFT, 1, 4),
            (GUARANTEE_OPTIMISTIC, 2, 3),
            (GUARANTEE_NO_OMISSION, 2, 5),
            (GUARANTEE_FULL_BFT, 2, 7),
        ],
    )
    def test_replica_counts(self, guarantee, f, expected):
        assert replication_for_guarantee(f, guarantee) == expected

    def test_unknown_guarantee_rejected(self):
        with pytest.raises(ConfigError):
            replication_for_guarantee(1, "mystery")


class TestClusterBFTConfig:
    def test_default_is_valid(self):
        ClusterBFTConfig().validate()

    def test_quorum_is_f_plus_one(self):
        assert ClusterBFTConfig(f=2, replication=7).quorum == 3

    def test_replication_must_mask_f(self):
        with pytest.raises(ConfigError):
            ClusterBFTConfig(f=2, replication=2).validate()

    def test_escalated_adds_replicas(self):
        config = ClusterBFTConfig(f=1, replication=2, rerun_extra_replicas=1)
        assert config.escalated().replication == 3

    def test_weak_adversary_accepted(self):
        ClusterBFTConfig(adversary=ADVERSARY_WEAK).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f": -1},
            {"verification_points": -1},
            {"digest_chunk_records": -1},
            {"adversary": "medium"},
            {"verifier_timeout": 0},
            {"suspicion_threshold": 1.5},
            {"max_reruns": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterBFTConfig(**kwargs).validate()

    def test_collocated_replicas_rejected(self):
        """The field only survives for v1 journal headers; no scheduler
        honours True, so validation must refuse it instead of running
        non-collocated replicas under a config that claims otherwise."""
        with pytest.raises(ConfigError, match="collocate_replicas"):
            ClusterBFTConfig(collocate_replicas=True).validate()


class TestSystemConfig:
    def test_default_is_valid(self):
        SystemConfig().validate()

    def test_validates_nested_configs(self):
        with pytest.raises(ConfigError):
            SystemConfig(bft=ClusterBFTConfig(f=-1)).validate()
