"""FleetCoordinator: eager validation, single-device identity,
heterogeneous fleets, checkpoint/resume and parallel bitwiseness."""

import json

import numpy as np
import pytest

from repro.experiments.config import StreamExperimentConfig
from repro.experiments.parallel import result_fingerprint
from repro.experiments.wire import decode_array, encode_array
from repro.fleet import DeviceSpec, FleetConfig, FleetCoordinator
from repro.registry import BACKENDS
from repro.session import Session

BACKENDS_UNDER_TEST = tuple(BACKENDS.names())


def tiny_config(**overrides):
    base = dict(
        dataset="cifar10",
        image_size=8,
        stc=8,
        total_samples=64,
        buffer_size=8,
        encoder_widths=(8, 16),
        encoder_blocks=1,
        projection_dim=8,
        probe_train_per_class=4,
        probe_test_per_class=2,
        probe_epochs=2,
        seed=0,
    )
    base.update(overrides)
    return StreamExperimentConfig(**base)


def fleet_config(devices, rounds=2, aggregator="fedavg", **overrides):
    return tiny_config(**overrides).with_(
        fleet=FleetConfig(devices=tuple(devices), rounds=rounds),
        aggregator=aggregator,
    )


class TestWireFormat:
    def test_array_round_trip_is_bitwise(self):
        """The global-overlay table (``{key: encode_array(value)}``) is a
        bitwise-lossless, JSON-compatible encoding of an array dict."""
        rng = np.random.default_rng(0)
        arrays = {
            "f32": rng.normal(size=(3, 4)).astype(np.float32),
            "f64": rng.normal(size=(2,)),
            "i64-scalar": np.array(7, dtype=np.int64),
            "empty": np.zeros((0, 5), dtype=np.float32),
            "noncontig": np.asarray(rng.normal(size=(4, 4)))[::2, ::2],
        }
        table = json.loads(
            json.dumps({key: encode_array(value) for key, value in arrays.items()})
        )
        decoded = {key: decode_array(spec) for key, spec in table.items()}
        assert set(decoded) == set(arrays)
        for key, value in arrays.items():
            assert decoded[key].dtype == value.dtype
            assert decoded[key].shape == value.shape
            assert np.array_equal(decoded[key], value)


class TestGlobalOverlay:
    def test_fresh_devices_share_one_overlay_per_round(self, monkeypatch):
        """Devices sampled for the first time after a broadcast start
        from the global model; the coordinator encodes that overlay once
        per round, not once per fresh device."""
        import repro.fleet.coordinator as coordinator_mod

        overlays = []
        real_run_jobs = coordinator_mod.run_jobs

        def recording_run_jobs(fn, payloads, **kwargs):
            overlays.append(
                [p["global_overlay"] for p in payloads if "global_overlay" in p]
            )
            return real_run_jobs(fn, payloads, **kwargs)

        monkeypatch.setattr(coordinator_mod, "run_jobs", recording_run_jobs)
        config = tiny_config().with_(
            fleet=FleetConfig(
                devices=tuple(DeviceSpec() for _ in range(6)),
                rounds=2,
                participants=3,
                sampler="round-robin",
            ),
            aggregator="fedavg",
        )
        FleetCoordinator(config, workers=1).run()
        assert overlays[0] == []  # no global model before the first broadcast
        assert len(overlays[1]) == 3
        assert all(overlay is overlays[1][0] for overlay in overlays[1])


class TestEagerValidation:
    """Everything fails at construction, with per-field messages."""

    def test_requires_fleet_field(self):
        with pytest.raises(ValueError, match="config.fleet must be set"):
            FleetCoordinator(tiny_config())

    def test_unknown_aggregator_names_field(self):
        config = fleet_config([DeviceSpec()], aggregator="fedavgg")
        with pytest.raises(ValueError, match="config.aggregator:.*did you mean"):
            FleetCoordinator(config)

    def test_unknown_device_policy_names_index(self):
        config = fleet_config([DeviceSpec(), DeviceSpec(policy="fifoo")])
        with pytest.raises(
            ValueError, match=r"config.fleet.devices\[1\].policy:.*did you mean"
        ):
            FleetCoordinator(config)

    def test_unknown_device_scenario_names_index(self):
        config = fleet_config([DeviceSpec(scenario="driift")])
        with pytest.raises(
            ValueError, match=r"config.fleet.devices\[0\].scenario:"
        ):
            FleetCoordinator(config)

    def test_unknown_device_backend_names_index(self):
        config = fleet_config([DeviceSpec(backend="fussed")])
        with pytest.raises(
            ValueError, match=r"config.fleet.devices\[0\].backend:"
        ):
            FleetCoordinator(config)

    def test_unknown_device_profile_names_index(self):
        config = fleet_config([DeviceSpec(profile="tpu-pod")])
        with pytest.raises(
            ValueError, match=r"config.fleet.devices\[0\].profile:.*known:"
        ):
            FleetCoordinator(config)

    def test_impossible_budget_names_field(self):
        config = fleet_config([DeviceSpec(compute_budget_mj=1e-12)])
        with pytest.raises(
            ValueError,
            match=r"config.fleet.devices\[0\].compute_budget_mj:.*cannot be met",
        ):
            FleetCoordinator(config)

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            FleetCoordinator(fleet_config([DeviceSpec()]), workers=0)

    def test_bad_eval_points(self):
        with pytest.raises(ValueError, match="eval_points"):
            FleetCoordinator(fleet_config([DeviceSpec()]), eval_points=0)

    def test_aliases_canonicalized_on_config(self):
        config = fleet_config(
            [DeviceSpec(policy="cs", scenario="cyclic")], aggregator="avg"
        )
        coordinator = FleetCoordinator(config)
        assert coordinator.config.aggregator == "fedavg"
        spec = coordinator.config.fleet.devices[0]
        assert spec.policy == "contrast-scoring"
        assert spec.scenario == "cyclic-drift"

    def test_budget_derives_lazy_interval(self):
        # Generous budget -> eager scoring fits; tight-but-feasible
        # budget -> some ladder interval is chosen deterministically.
        config = fleet_config(
            [DeviceSpec(profile="mcu-class", compute_budget_mj=1e6)]
        )
        coordinator = FleetCoordinator(config)
        assert coordinator._plans[0].lazy_interval is None


class TestSingleDeviceIdentity:
    def test_fedavg_fleet_of_one_matches_plain_session(self):
        """Acceptance: a fedavg fleet of 1 device is bitwise-identical
        to a plain single-device Session run with the same config."""
        config = tiny_config(total_samples=96)
        plain = Session(config, "contrast-scoring").with_eval_points(1).run()
        coordinator = FleetCoordinator(
            config.with_(fleet=FleetConfig.uniform(1, rounds=3), aggregator="fedavg")
        )
        fleet = coordinator.run()
        assert result_fingerprint(fleet.device_results[0]) == result_fingerprint(
            plain
        )
        assert fleet.final_global_knn_accuracy == plain.info["final_knn_accuracy"]

    @pytest.mark.parametrize("aggregator", ["fedavg-momentum", "best-of"])
    def test_other_rules_are_also_identity_for_one_device(self, aggregator):
        config = tiny_config()
        plain = Session(config, "contrast-scoring").with_eval_points(1).run()
        fleet = FleetCoordinator(
            config.with_(
                fleet=FleetConfig.uniform(1, rounds=2), aggregator=aggregator
            )
        ).run()
        assert result_fingerprint(fleet.device_results[0]) == result_fingerprint(
            plain
        )


HETERO_DEVICES = (
    DeviceSpec(scenario="temporal"),
    DeviceSpec(scenario="drift", policy="fifo"),
    DeviceSpec(scenario="imbalanced"),
)


class TestHeterogeneousFleet:
    def test_aggregation_across_scenarios(self):
        """Satellite: aggregation works over per-device scenarios —
        every device keeps its own stream shape, policy, and seed while
        the model still synchronizes."""
        coordinator = FleetCoordinator(
            fleet_config(HETERO_DEVICES, rounds=2, aggregator="fedavg")
        )
        result = coordinator.run()
        assert len(result.rounds) == 2
        assert [d.device for d in result.rounds[0].devices] == [
            "device0",
            "device1",
            "device2",
        ]
        # every device consumed its own stream
        assert all(d.samples > 0 for d in result.rounds[0].devices)
        # scenario and seed heterogeneity survived on the run configs
        scenarios = [r.config.scenario for r in result.device_results]
        assert scenarios == ["temporal", "drift", "imbalanced"]
        assert [r.config.seed for r in result.device_results] == [0, 1, 2]
        # after a synchronizing round, devices share the model bitwise
        states = coordinator._device_states
        for key, value in states[0]["learner"].items():
            if key.startswith(("encoder/", "projector/")):
                assert np.array_equal(value, states[1]["learner"][key])
        # ... but keep their own optimizer moments
        assert result.rounds[-1].synchronized

    def test_local_only_never_synchronizes(self):
        coordinator = FleetCoordinator(
            fleet_config(HETERO_DEVICES, rounds=2, aggregator="local-only")
        )
        result = coordinator.run()
        assert all(not r.synchronized for r in result.rounds)
        assert coordinator.global_model_state is None
        expected = np.mean([d.knn_accuracy for d in result.rounds[-1].devices])
        assert result.final_global_knn_accuracy == pytest.approx(float(expected))

    def test_parallel_bitwise_identical_to_serial(self):
        config = fleet_config(HETERO_DEVICES, rounds=2, aggregator="fedavg-momentum")
        serial = FleetCoordinator(config).run()
        parallel = FleetCoordinator(config, workers=3).run()
        assert serial.fingerprint() == parallel.fingerprint()

    def test_run_fleet_experiment_parallel_equals_serial(self):
        """Acceptance: the fleet experiment with workers=2 produces
        bitwise-identical deterministic fields to the serial run."""
        from repro.experiments.fleet import run_fleet

        config = tiny_config()
        serial = run_fleet(config, devices=2, rounds=2, workers=1)
        parallel = run_fleet(config, devices=2, rounds=2, workers=2)
        assert serial.fingerprint() == parallel.fingerprint()


class TestCheckpointResume:
    @pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
    def test_mid_run_resume_is_bitwise(self, backend, tmp_path):
        """Satellite: checkpoint after round 1 of 3, resume, finish —
        bitwise-identical to the uninterrupted run, on every backend."""
        config = fleet_config(
            (DeviceSpec(scenario="temporal"), DeviceSpec(scenario="drift")),
            rounds=3,
            aggregator="fedavg-momentum",
            backend=backend,
        )
        straight = FleetCoordinator(config).run()

        part = FleetCoordinator(config)
        part.run(rounds=1)
        path = part.save_checkpoint(str(tmp_path / "fleet"))
        resumed = FleetCoordinator.resume(path)
        assert resumed.rounds_completed == 1
        result = resumed.run()
        assert result.fingerprint() == straight.fingerprint()

    def test_resume_under_parallel_workers_is_bitwise(self, tmp_path):
        config = fleet_config(HETERO_DEVICES, rounds=2)
        straight = FleetCoordinator(config).run()
        part = FleetCoordinator(config, workers=2)
        part.run(rounds=1)
        path = part.save_checkpoint(str(tmp_path / "fleet"))
        result = FleetCoordinator.resume(path, workers=2).run()
        assert result.fingerprint() == straight.fingerprint()

    def test_state_dict_round_trip_in_memory(self):
        config = fleet_config([DeviceSpec(), DeviceSpec()], rounds=2)
        a = FleetCoordinator(config)
        a.run(rounds=1)
        b = FleetCoordinator(config)
        b.load_state_dict(a.state_dict())
        assert a.run().fingerprint() == b.run().fingerprint()

    def test_load_rejects_mismatched_config(self):
        a = FleetCoordinator(fleet_config([DeviceSpec()], rounds=2))
        a.run(rounds=1)
        b = FleetCoordinator(fleet_config([DeviceSpec()], rounds=2, seed=9))
        with pytest.raises(ValueError, match="different config"):
            b.load_state_dict(a.state_dict())

    def test_result_before_any_round_raises(self):
        coordinator = FleetCoordinator(fleet_config([DeviceSpec()]))
        with pytest.raises(RuntimeError, match="no rounds"):
            coordinator.result()

    def test_run_rejects_zero_rounds(self):
        coordinator = FleetCoordinator(fleet_config([DeviceSpec()]))
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            coordinator.run(rounds=0)

    def test_run_after_completion_returns_result(self):
        coordinator = FleetCoordinator(fleet_config([DeviceSpec()], rounds=1))
        first = coordinator.run()
        again = coordinator.run()  # nothing remaining: just the result
        assert again.fingerprint() == first.fingerprint()
