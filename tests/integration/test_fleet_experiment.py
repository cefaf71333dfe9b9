"""The `fleet` experiment harness: table rendering, gap metric, and
config-carried fleet fields."""

import pytest

from repro.experiments.config import StreamExperimentConfig
from repro.experiments.fleet import format_fleet, run_fleet
from repro.fleet import DeviceSpec, FleetConfig


@pytest.fixture
def tiny_config():
    return StreamExperimentConfig(
        dataset="cifar10",
        image_size=8,
        stc=4,
        total_samples=64,
        buffer_size=8,
        encoder_widths=(8, 16),
        projection_dim=8,
        probe_train_per_class=2,
        probe_test_per_class=2,
        probe_epochs=2,
        seed=0,
    )


class TestRunFleet:
    def test_uniform_roster_and_gap(self, tiny_config):
        result = run_fleet(tiny_config, devices=2, rounds=2, aggregator="fedavg")
        assert len(result.fleet.rounds) == 2
        assert result.fleet.device_names == ["device0", "device1"]
        single_knn = float(result.single.info["final_knn_accuracy"])
        assert result.fleet_gap == pytest.approx(
            result.fleet.final_global_knn_accuracy - single_knn
        )
        # the baseline is a plain run: no fleet fields on its config
        assert result.single.config.fleet is None
        assert result.single.config.aggregator is None

    def test_config_fleet_fields_win(self, tiny_config):
        """A config that already carries fleet/aggregator overrides the
        devices/rounds/aggregator arguments."""
        config = tiny_config.with_(
            fleet=FleetConfig(devices=(DeviceSpec(policy="fifo"),), rounds=1),
            aggregator="local-only",
        )
        result = run_fleet(config, devices=5, rounds=9, aggregator="fedavg")
        assert len(result.fleet.device_names) == 1
        assert len(result.fleet.rounds) == 1
        assert result.fleet.aggregator == "local-only"
        # baseline follows the first device's policy
        assert result.single.policy == "fifo"

    def test_baseline_follows_first_device_plan(self, tiny_config):
        """The gap is an equal-budget comparison: an explicit roster's
        seed/stream-length overrides reach the baseline run too."""
        from repro.experiments.parallel import result_fingerprint

        roster = (DeviceSpec(seed=7, total_samples=128, scenario="bursty"),)
        result = run_fleet(tiny_config, devices=roster, rounds=2)
        assert result.single.config.seed == 7
        assert result.single.config.total_samples == 128
        assert result.single.config.scenario == "bursty"
        # one fedavg device IS the baseline run, bitwise (the gap itself
        # may still differ from zero: the global model is scored on the
        # server's pools, the baseline on the device's own)
        assert result_fingerprint(result.fleet.device_results[0]) == (
            result_fingerprint(result.single)
        )

    def test_policy_and_scenario_apply_to_roster_and_baseline(self, tiny_config):
        result = run_fleet(
            tiny_config, devices=2, rounds=1, policy="fifo", scenario="drift"
        )
        for run in result.fleet.device_results:
            assert run.policy == "fifo"
            assert run.config.scenario == "drift"
        assert result.single.policy == "fifo"
        assert result.single.config.scenario == "drift"


class TestFormatFleet:
    def test_table_shape_and_summary(self, tiny_config):
        result = run_fleet(tiny_config, devices=2, rounds=2)
        text = format_fleet(result)
        assert "round" in text and "global acc" in text
        assert "device0 (acc/div)" in text and "device1 (acc/div)" in text
        assert "aggregator=fedavg devices=2 rounds=2" in text
        assert "fleet-vs-single-device gap" in text

    def test_local_only_marks_unsynchronized_rounds(self, tiny_config):
        result = run_fleet(tiny_config, devices=2, rounds=1, aggregator="local-only")
        assert "(no sync)" in format_fleet(result)

    @pytest.mark.parametrize("workers, footers", [(1, 0), (2, 1)])
    def test_timings_footer_only_when_parallel(self, tiny_config, workers, footers):
        result = run_fleet(tiny_config, devices=2, rounds=2, workers=workers)
        lines = format_fleet(result).splitlines()
        footer = [line for line in lines if line.startswith("timings:")]
        assert len(footer) == footers
        assert all(f"wire={result.fleet.wire_format} " in line for line in footer)
