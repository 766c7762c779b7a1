"""Tests for chaos scenario definitions and resolution."""

import hashlib
import json

import pytest

from repro.chaos.scenarios import (
    CAMPAIGNS,
    DEFAULT_CAMPAIGN,
    GEO_CAMPAIGN,
    REGION_LOSS,
    SCENARIOS,
    SERVICE_CAMPAIGN,
    SMOKE_CAMPAIGN,
    FaultSpec,
    Scenario,
    ServiceScenario,
    build_fault_plan,
    resolve_scenarios,
)
from repro.common.errors import ConfigError, ReproError
from repro.core import journal
from repro.faults.behaviors import CommissionBehavior, CrashBehavior

#: SHA-256 of each batch scenario's sorted-key JSON deployment
#: (``journal.config_to_json``) at seeds 1 and 2.  The values were
#: computed when scenarios still mirrored every config field one by
#: one; the override form must resolve to the same bytes.
CONFIG_FINGERPRINTS = {
    'baseline': (
        "07bb2ad6f51286e864ddb66369bacd092869eb3ee6fe12a4132c3ad7f35061ed",
        "85d93243a740ba2fd7a1035a56027ee5008ed05e1b0314b8b678ac68b2c437b8",
    ),
    'commission': (
        "07bb2ad6f51286e864ddb66369bacd092869eb3ee6fe12a4132c3ad7f35061ed",
        "85d93243a740ba2fd7a1035a56027ee5008ed05e1b0314b8b678ac68b2c437b8",
    ),
    'omission': (
        "8cd5311d2c58c3f24b5a111b4fbcf0ebe736fc1e45a2b58c6c64c2cc3a1b6c7c",
        "999c30dfa0995f72e0b461fb5bbcc6d0110a3697162532c9e12cf793ffa1fe17",
    ),
    'crash': (
        "35e020a7731b54cba842145a4e7b7ecec505e3039084c055fc6b923852d115c0",
        "bcfd5edea2a71ad3baa11da107d617e074472cb78f2f61e2763c20ba9c51cf79",
    ),
    'equivocate': (
        "07bb2ad6f51286e864ddb66369bacd092869eb3ee6fe12a4132c3ad7f35061ed",
        "85d93243a740ba2fd7a1035a56027ee5008ed05e1b0314b8b678ac68b2c437b8",
    ),
    'storage-rot': (
        "07bb2ad6f51286e864ddb66369bacd092869eb3ee6fe12a4132c3ad7f35061ed",
        "85d93243a740ba2fd7a1035a56027ee5008ed05e1b0314b8b678ac68b2c437b8",
    ),
    'quarantine': (
        "cbd7fc41df2864574b87bef85860a8e0ed1a394f485812b3f531fbeead1fcc67",
        "32350bcce5fff4cee89134da76c4f8532d899dd1bde90b98a6da9579177c7de4",
    ),
    'net-drop': (
        "07bb2ad6f51286e864ddb66369bacd092869eb3ee6fe12a4132c3ad7f35061ed",
        "85d93243a740ba2fd7a1035a56027ee5008ed05e1b0314b8b678ac68b2c437b8",
    ),
    'net-delay': (
        "07bb2ad6f51286e864ddb66369bacd092869eb3ee6fe12a4132c3ad7f35061ed",
        "85d93243a740ba2fd7a1035a56027ee5008ed05e1b0314b8b678ac68b2c437b8",
    ),
    'combo': (
        "35e020a7731b54cba842145a4e7b7ecec505e3039084c055fc6b923852d115c0",
        "bcfd5edea2a71ad3baa11da107d617e074472cb78f2f61e2763c20ba9c51cf79",
    ),
    'exhaustion': (
        "4bb9ab17914d85f922899cce5c2f348014449c8c1061e260d5733e5088d73eb1",
        "871d75a59a6b1a3e1d62d4dc87a309d08dc8b4b0f5e4fce76057c185a23ecab9",
    ),
    'ctl-crash': (
        "07bb2ad6f51286e864ddb66369bacd092869eb3ee6fe12a4132c3ad7f35061ed",
        "85d93243a740ba2fd7a1035a56027ee5008ed05e1b0314b8b678ac68b2c437b8",
    ),
    'ctl-crash-omission': (
        "95146e6d528b6f5a909dd0d4f98cc2992122cb9f78849efb8f631083df84e3ef",
        "837647f9ee77597269400018ac699455047b8ba1f43034a98bdf75411776117a",
    ),
    'ctl-crash-final': (
        "f3f25c65d45a10cc633e295bf7408ab8af3e9dee601728fcbfbcdb77e0633720",
        "9e1cbcb30d505551624189d3cc73e7cded4a2cb957921dd519b07f6aa2e59b3b",
    ),
    'ckpt-baseline': (
        "6ce1e5099a26938fbfd5420ca4e413b5968f46920c2109162c3fd57f9bb40615",
        "28ed05afb678eded0926408d85f0f5e7517b04ca5ee41e3a0e215817e857b952",
    ),
    'ckpt-omission': (
        "c606f18b7f850e43c31b5c537853306bae00c52c703064785a135f55a28b5f3d",
        "62dcf81d53448a9aef571ec0178f66d3cc1f53e462eba51d99d4d9d0dbb11e4b",
    ),
    'ckpt-density': (
        "661a8e93c6f3774dd11c0e800cadd7c24eec75926cba8e34d4f799411ce8ae81",
        "9107e0cc8ff20db546e3799a220b957250abc2338342a082c8f7bdc91c73d106",
    ),
    'geo-baseline': (
        "4fd0a9f1b0020f975548fc299791ca88fae1942d16a28f105a2081e0e735a335",
        "0c121bea71735c79d0396dff31165f3891502b89cd0d95d860689866b7210edc",
    ),
    'region-loss': (
        "ad052b973e66264bb9bd5cf095cc1cdc3fc858ac3748731c7bcaeed57159c980",
        "cac9f744fec6015f1c65e6e6f2c964b2533497b8dc9a3446a126e98aa00577ab",
    ),
    'wan-spike': (
        "8899006c6e1b034fc494bd0d7859735f9ff7bcb9dd13512cebc454da85dd542c",
        "a41795afd7cf9860a435a81f009d3dcc7f87381804a48e09e14f158acc852be1",
    ),
    'slow-region-equivocate': (
        "9a42966607db1c5a6d63c004ca49760e1c585b08cce41a46c4d838554ff569f4",
        "9f7a91deff189ef07ae6cae04b6bef97515e4bc7522c9a5e1a8e463d21879075",
    ),
    'geo-ctl-crash': (
        "9a42966607db1c5a6d63c004ca49760e1c585b08cce41a46c4d838554ff569f4",
        "9f7a91deff189ef07ae6cae04b6bef97515e4bc7522c9a5e1a8e463d21879075",
    ),
    'obs-commission': (
        "07bb2ad6f51286e864ddb66369bacd092869eb3ee6fe12a4132c3ad7f35061ed",
        "85d93243a740ba2fd7a1035a56027ee5008ed05e1b0314b8b678ac68b2c437b8",
    ),
    'obs-timeout': (
        "df2d1f4117a921558c84f7bc0d13076ddcc437eed3833736d32d896a72455101",
        "2199ad01b23389593c48e726b60596fe74fe8c8dd295185a365820df612de262",
    ),
    'obs-crash': (
        "35e020a7731b54cba842145a4e7b7ecec505e3039084c055fc6b923852d115c0",
        "bcfd5edea2a71ad3baa11da107d617e074472cb78f2f61e2763c20ba9c51cf79",
    ),
    'obs-quarantine': (
        "cbd7fc41df2864574b87bef85860a8e0ed1a394f485812b3f531fbeead1fcc67",
        "32350bcce5fff4cee89134da76c4f8532d899dd1bde90b98a6da9579177c7de4",
    ),
    'weakened-safe1': (
        "60bd0b72a1acd88a070cdf833e3e3f55d02a280af836de4c14102b002a4cb03a",
        "ab1a34fdd28bc1f6d63d7f63cfdc1049f30e70e66ded158dc4e2d2c2654f8f84",
    ),
}


class TestResolution:
    def test_campaign_names_resolve(self):
        assert [s.name for s in resolve_scenarios("default")] == list(
            DEFAULT_CAMPAIGN
        )
        assert [s.name for s in resolve_scenarios("smoke")] == list(SMOKE_CAMPAIGN)

    def test_comma_list_resolves_in_order(self):
        chosen = resolve_scenarios("crash, baseline")
        assert [s.name for s in chosen] == ["crash", "baseline"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError, match="unknown scenario"):
            resolve_scenarios("no-such-thing")

    def test_empty_selector_rejected(self):
        with pytest.raises(ReproError, match="no scenarios"):
            resolve_scenarios(",")

    def test_campaign_members_exist(self):
        for members in CAMPAIGNS.values():
            for name in members:
                assert name in SCENARIOS

    def test_weakened_scenario_not_in_campaigns(self):
        """The deliberately broken scenario must never ride a campaign."""
        for members in CAMPAIGNS.values():
            assert "weakened-safe1" not in members


class TestScenarioConfigs:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_config_validates(self, name):
        scenario = SCENARIOS[name]
        if isinstance(scenario, ServiceScenario):
            # Service scenarios validate through the fail-closed trace
            # parser instead of a SystemConfig.
            from repro.service.tenants import parse_trace

            parse_trace(scenario.trace_text(seed=1), name=name)
        else:
            scenario.system_config(seed=1)

    def test_seed_perturbs_config_seed(self):
        scenario = SCENARIOS["baseline"]
        assert (
            scenario.system_config(1).seed != scenario.system_config(2).seed
        )

    def test_configs_match_fingerprints(self):
        batch = {
            name: tuple(
                hashlib.sha256(
                    json.dumps(
                        journal.config_to_json(scenario.system_config(seed)),
                        sort_keys=True,
                    ).encode()
                ).hexdigest()
                for seed in (1, 2)
            )
            for name, scenario in SCENARIOS.items()
            if isinstance(scenario, Scenario)
        }
        assert batch == CONFIG_FINGERPRINTS

    @pytest.mark.parametrize("layer", ["cluster", "bft"])
    def test_unknown_override_key_rejected(self, layer):
        scenario = Scenario(name="t", description="", **{layer: {"no_such": 1}})
        with pytest.raises(ConfigError, match="no_such"):
            scenario.system_config(seed=1)

    def test_network_fault_detection(self):
        assert SCENARIOS["net-drop"].uses_network_faults
        assert not SCENARIOS["commission"].uses_network_faults


class TestServiceScenarios:
    def test_service_campaign_members_are_service_scenarios(self):
        assert CAMPAIGNS["service"] == SERVICE_CAMPAIGN
        for name in SERVICE_CAMPAIGN:
            assert isinstance(SCENARIOS[name], ServiceScenario)

    def test_trace_text_perturbs_seed_and_names_scenario(self):
        scenario = SCENARIOS["tenant-flood"]
        one = json.loads(scenario.trace_text(1))
        two = json.loads(scenario.trace_text(2))
        assert one["seed"] != two["seed"]
        assert one["name"] == "tenant-flood"

    def test_flood_scenario_expects_rejections(self):
        scenario = SCENARIOS["tenant-flood"]
        assert scenario.expect_rejections
        assert scenario.honest_p99_bound is not None

    def test_quarantine_scenario_expects_cross_tenant_handoff(self):
        assert SCENARIOS["cross-tenant-quarantine"].expect_cross_tenant_quarantine


class TestFaultPlans:
    def test_build_fault_plan_resolves_indices(self):
        scenario = Scenario(
            name="t",
            description="",
            faults=(
                FaultSpec("commission", 1, (("probability", 0.5),)),
                FaultSpec("crash", 2, (("after_tasks", 4),)),
            ),
        )
        plan = build_fault_plan(scenario, ["n0", "n1", "n2"])
        assert isinstance(plan.behavior_for("n1"), CommissionBehavior)
        assert plan.behavior_for("n1").probability == 0.5
        assert isinstance(plan.behavior_for("n2"), CrashBehavior)
        assert plan.behavior_for("n2").after_tasks == 4

    def test_network_faults_excluded_from_node_plan(self):
        scenario = SCENARIOS["net-drop"]
        plan = build_fault_plan(scenario, [f"n{i}" for i in range(12)])
        assert plan.faulty_nodes() == set()

    def test_unknown_kind_rejected(self):
        scenario = Scenario(name="t", description="", faults=(FaultSpec("warp", 0),))
        with pytest.raises(ReproError, match="unknown fault kind"):
            build_fault_plan(scenario, ["n0"])

    def test_out_of_range_index_rejected(self):
        scenario = Scenario(
            name="t", description="", faults=(FaultSpec("commission", 9),)
        )
        with pytest.raises(ReproError, match="out of range"):
            build_fault_plan(scenario, ["n0"])


class TestGeoScenarios:
    _REGIONS = (("east", 2, 1.0), ("west", 2, 1.0))

    def test_geo_campaign_registered(self):
        assert CAMPAIGNS["geo"] == GEO_CAMPAIGN
        assert [s.name for s in resolve_scenarios("geo")] == list(GEO_CAMPAIGN)

    def test_region_loss_expands_to_crash_on_every_member(self):
        scenario = Scenario(
            name="t", description="", faults=(FaultSpec(REGION_LOSS, 1),)
        )
        plan = build_fault_plan(scenario, [f"n{i}" for i in range(4)], self._REGIONS)
        assert plan.faulty_nodes() == {"n2", "n3"}
        for node in ("n2", "n3"):
            behavior = plan.behavior_for(node)
            assert isinstance(behavior, CrashBehavior)
            assert behavior.after_tasks == 0  # dead from the first heartbeat

    def test_region_loss_index_out_of_range_rejected(self):
        scenario = Scenario(
            name="t", description="", faults=(FaultSpec(REGION_LOSS, 5),)
        )
        with pytest.raises(ReproError, match="out of range"):
            build_fault_plan(scenario, [f"n{i}" for i in range(4)], self._REGIONS)

    def test_geo_configs_carry_topology(self):
        config = SCENARIOS["region-loss"].system_config(seed=1)
        assert config.cluster.regions
        assert config.cluster.wan_latency_seconds > 0.0
        slow = SCENARIOS["slow-region-equivocate"].system_config(seed=1)
        assert slow.bft.region_suspicion_threshold is not None

    def test_region_loss_never_targets_majority(self):
        """Chaos scenarios must lose a *minority* region — assurance
        under majority loss is not a claim the campaign makes."""
        for name in GEO_CAMPAIGN:
            scenario = SCENARIOS[name]
            for spec in scenario.faults:
                if spec.kind != REGION_LOSS:
                    continue
                cluster = scenario.system_config(seed=1).cluster
                count = cluster.regions[spec.node][1]
                assert count * 2 < cluster.num_nodes


class TestObsCampaign:
    def test_obs_campaign_registered(self):
        from repro.chaos.scenarios import OBS_CAMPAIGN

        assert CAMPAIGNS["obs"] == OBS_CAMPAIGN
        assert set(OBS_CAMPAIGN) <= set(SCENARIOS)

    def test_obs_scenarios_declare_known_alerts(self):
        from repro.chaos.scenarios import OBS_CAMPAIGN
        from repro.telemetry.slo import DEFAULT_RULES

        known = {rule.name for rule in DEFAULT_RULES}
        for name in OBS_CAMPAIGN:
            expected = SCENARIOS[name].expected_alerts
            assert expected, f"{name} declares no expected alerts"
            assert set(expected) <= known

    def test_non_obs_scenarios_declare_none(self):
        from repro.chaos.scenarios import OBS_CAMPAIGN

        for name, scenario in SCENARIOS.items():
            if name not in OBS_CAMPAIGN:
                assert getattr(scenario, "expected_alerts", ()) == ()
