"""DeviceSpec / FleetConfig: validation and serialization."""

import json

import pytest

from repro.experiments.config import StreamExperimentConfig, default_config
from repro.fleet.spec import DeviceSpec, FleetConfig
from repro.session import config_from_dict, config_to_dict


class TestDeviceSpecValidation:
    def test_defaults_are_valid(self):
        spec = DeviceSpec()
        assert spec.policy == "contrast-scoring"
        assert spec.scenario is None and spec.seed is None

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("policy", "", "DeviceSpec.policy"),
            ("scenario", "", "DeviceSpec.scenario"),
            ("backend", "", "DeviceSpec.backend"),
            ("seed", "3", "DeviceSpec.seed"),
            ("total_samples", 0, "DeviceSpec.total_samples"),
            ("profile", "", "DeviceSpec.profile"),
            ("compute_budget_mj", 0.0, "DeviceSpec.compute_budget_mj"),
            ("lazy_interval", 0, "DeviceSpec.lazy_interval"),
        ],
    )
    def test_per_field_messages(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            DeviceSpec(**{field: value})

    def test_budget_and_interval_are_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            DeviceSpec(compute_budget_mj=10.0, lazy_interval=4)

    def test_round_trip(self):
        spec = DeviceSpec(
            policy="fifo",
            scenario="drift",
            seed=7,
            profile="mcu-class",
            compute_budget_mj=25.0,
        )
        assert DeviceSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestFleetConfig:
    def test_needs_devices(self):
        with pytest.raises(ValueError, match="at least one device"):
            FleetConfig(devices=())

    def test_rejects_non_spec_entries(self):
        with pytest.raises(ValueError, match=r"devices\[0\]"):
            FleetConfig(devices=({"policy": "fifo"},))

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            FleetConfig(devices=(DeviceSpec(),), rounds=0)

    def test_uniform(self):
        fleet = FleetConfig.uniform(3, rounds=4, policy="fifo")
        assert len(fleet.devices) == 3
        assert all(spec.policy == "fifo" for spec in fleet.devices)
        assert fleet.rounds == 4

    def test_round_trip(self):
        fleet = FleetConfig(
            devices=(DeviceSpec(), DeviceSpec(scenario="bursty")), rounds=3
        )
        assert FleetConfig.from_dict(json.loads(json.dumps(fleet.to_dict()))) == fleet


class TestConfigThreading:
    """config.fleet / config.aggregator ride the config serialization."""

    def test_default_config_has_no_fleet(self):
        config = default_config()
        assert config.fleet is None and config.aggregator is None

    def test_config_dict_round_trip_with_fleet(self):
        config = default_config().with_(
            fleet=FleetConfig.uniform(2, rounds=3), aggregator="fedavg"
        )
        payload = json.loads(json.dumps(config_to_dict(config)))
        restored = config_from_dict(payload)
        assert restored == config
        assert restored.fleet.rounds == 3
        assert restored.aggregator == "fedavg"

    def test_config_stays_hashable_with_fleet(self):
        config = default_config().with_(fleet=FleetConfig.uniform(2))
        assert hash(config) == hash(config.with_())

    def test_pre_fleet_payloads_still_load(self):
        """Configs serialized before the fleet fields existed (no
        'fleet'/'aggregator' keys) must keep loading."""
        payload = config_to_dict(default_config())
        del payload["fleet"], payload["aggregator"]
        restored = config_from_dict(payload)
        assert restored.fleet is None and restored.aggregator is None

    def test_fleet_config_is_frozen(self):
        config = StreamExperimentConfig(fleet=FleetConfig.uniform(1))
        with pytest.raises(Exception):
            config.fleet.rounds = 5


class TestPopulationFields:
    """The population FleetConfig fields: sampling, deadlines, chaos."""

    def two(self, **kw):
        return FleetConfig(devices=(DeviceSpec(), DeviceSpec()), **kw)

    def test_participants_bounds(self):
        assert self.two(participants=1).participants == 1
        assert self.two(participants=2).participants == 2
        with pytest.raises(ValueError, match="participants"):
            self.two(participants=0)
        with pytest.raises(ValueError, match="participants"):
            self.two(participants=3)

    def test_sampler_must_be_nonempty_string(self):
        assert self.two(participants=1, sampler="uniform").sampler == "uniform"
        with pytest.raises(ValueError, match="sampler"):
            self.two(sampler="")

    def test_sampler_needs_participants(self):
        """A sampler without K would be silently ignored (every device
        trains), so the pair is rejected up front."""
        with pytest.raises(ValueError, match="sampler 'rr' needs participants"):
            self.two(sampler="rr")

    def test_round_deadline_positive(self):
        assert self.two(round_deadline_s=1.5).round_deadline_s == 1.5
        with pytest.raises(ValueError, match="round_deadline_s"):
            self.two(round_deadline_s=0.0)

    def test_fault_plan_overrides_checked_against_roster(self):
        from repro.fleet.faults import DeviceFaults, FaultPlan

        plan = FaultPlan(seed=1, overrides=((1, DeviceFaults(dropout_prob=0.5)),))
        assert self.two(fault_plan=plan).fault_plan == plan
        beyond = FaultPlan(seed=1, overrides=((2, DeviceFaults(dropout_prob=0.5)),))
        with pytest.raises(ValueError, match="overrides device 2"):
            self.two(fault_plan=beyond)

    def test_population_round_trip(self):
        from repro.fleet.faults import DeviceFaults, FaultPlan

        fleet = FleetConfig(
            devices=tuple(DeviceSpec() for _ in range(4)),
            rounds=3,
            participants=2,
            sampler="round-robin",
            round_deadline_s=2.0,
            fault_plan=FaultPlan(
                seed=7,
                default=DeviceFaults(dropout_prob=0.1),
                overrides=((3, DeviceFaults(straggler_delay_s=5.0)),),
            ),
        )
        assert FleetConfig.from_dict(json.loads(json.dumps(fleet.to_dict()))) == fleet

    def test_population_config_threads_and_stays_hashable(self):
        fleet = self.two(participants=1, sampler="uniform", round_deadline_s=1.0)
        config = default_config().with_(fleet=fleet, aggregator="fedavg-async")
        payload = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(payload) == config
        assert hash(config) == hash(config.with_())

    def test_pre_population_payloads_still_load(self):
        """FleetConfig dicts serialized before PR 9 (no population
        keys) must keep loading with the new fields defaulted."""
        payload = self.two().to_dict()
        for key in (
            "participants",
            "sampler",
            "round_deadline_s",
            "fault_plan",
        ):
            del payload[key]
        restored = FleetConfig.from_dict(payload)
        assert restored.participants is None
        assert restored.fault_plan is None

    def test_payloads_of_removed_fields_still_load(self):
        """Payloads written while FleetConfig had a ``regions`` field
        carry ``"regions": null``; they load as the same config."""
        fleet = self.two(participants=1, sampler="round-robin")
        payload = {**fleet.to_dict(), "regions": None}
        assert FleetConfig.from_dict(payload) == fleet
