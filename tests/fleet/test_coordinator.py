"""FleetCoordinator: eager validation, single-device identity,
heterogeneous fleets, checkpoint/resume and parallel bitwiseness."""

import json

import numpy as np
import pytest

import repro.fleet.coordinator as coordinator_mod
from repro.experiments.config import StreamExperimentConfig
from repro.experiments.parallel import TIMING_FIELDS, result_fingerprint
from repro.experiments.wire import (
    decode_array,
    decode_state_payload,
    encode_array,
    get_wire_format,
)
from repro.fleet import DeviceSpec, FleetConfig, FleetCoordinator
from repro.registry import BACKENDS
from repro.session import Session, config_from_dict
from repro.train.knn import KnnProbe

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


def overlay_fleet_config():
    """Six devices, three sampled per round by round-robin: round 2's
    devices are all first participations after a broadcast."""
    return tiny_config().with_(
        fleet=FleetConfig(
            devices=tuple(DeviceSpec() for _ in range(6)),
            rounds=2,
            participants=3,
            sampler="round-robin",
        ),
        aggregator="fedavg",
    )


@pytest.fixture(scope="class")
def first_participations():
    """Round 2's payloads of the overlay fleet: each carries the
    round-1 global model as its ``global_overlay``."""
    rounds = []
    real_run_jobs = coordinator_mod.run_jobs

    def recording_run_jobs(fn, payloads, **kwargs):
        rounds.append(list(payloads))
        return real_run_jobs(fn, payloads, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordinator_mod, "run_jobs", recording_run_jobs)
        FleetCoordinator(overlay_fleet_config(), workers=1).run()
    payloads = [p for p in rounds[1] if "global_overlay" in p]
    assert len(payloads) == 3
    return payloads


def overlay_arrays(payload):
    return {key: decode_array(spec) for key, spec in payload["global_overlay"].items()}


def two_session_job(payload):
    """The first-participation job as two sessions: a throwaway one
    materializes the fresh learner, the decoded overlay is patched
    into its state, and a second session resumes from that state."""
    session = (
        Session(config_from_dict(payload["config"]), policy=payload["policy"])
        .with_eval_points(payload["eval_points"])
        .with_label_fraction(payload["label_fraction"])
        .with_lazy_interval(payload["lazy_interval"])
        .with_score_momentum(payload["score_momentum"])
    )
    session.run(stop_after=0)
    fresh = session.state_dict()
    fresh["learner"].update(overlay_arrays(payload))
    session = Session.from_state_dict(fresh)
    result = session.run(stop_after=payload["stop_after"])
    return session.state_dict(), result.to_dict()


def raw_reply(out):
    """A device job's reply as ``(state, result dict)``, decoded from
    its response codec when it has one."""
    state = out["state"]
    if out["encoded"]:
        state = {"meta": state["meta"], "learner": decode_state_payload(state["learner"])}
    return state, out["result"]


class TestGlobalOverlay:
    def test_fresh_devices_share_one_overlay_per_round(self, monkeypatch):
        """Devices sampled for the first time after a broadcast start
        from the global model; the coordinator encodes that overlay once
        per round, not once per fresh device."""
        overlays = []
        real_run_jobs = coordinator_mod.run_jobs

        def recording_run_jobs(fn, payloads, **kwargs):
            overlays.append(
                [p["global_overlay"] for p in payloads if "global_overlay" in p]
            )
            return real_run_jobs(fn, payloads, **kwargs)

        monkeypatch.setattr(coordinator_mod, "run_jobs", recording_run_jobs)
        FleetCoordinator(overlay_fleet_config(), workers=1).run()
        assert overlays[0] == []  # no global model before the first broadcast
        assert len(overlays[1]) == 3
        assert all(overlay is overlays[1][0] for overlay in overlays[1])

    def test_one_session_job_matches_two_session_path_bitwise(
        self, first_participations
    ):
        """Adopting the overlay in the fresh learner reaches the state
        the throwaway-session round trip restored: every learner array,
        meta entry and result field is identical except wall-clock
        timings."""
        payload = first_participations[0]
        state, result = raw_reply(coordinator_mod._device_round_worker(payload))
        ref_state, ref_result = two_session_job(payload)

        learner, ref_learner = state["learner"], ref_state["learner"]
        assert learner.keys() == ref_learner.keys()
        for key, value in learner.items():
            value, ref = np.asarray(value), np.asarray(ref_learner[key])
            if key == "history":  # columns 5-6: select/train seconds
                value, ref = value[:, :5], ref[:, :5]
            assert value.dtype == ref.dtype and value.shape == ref.shape, key
            assert value.tobytes() == ref.tobytes(), key
        meta = {k: v for k, v in state["meta"].items() if k != "wall_accum"}
        ref_meta = {k: v for k, v in ref_state["meta"].items() if k != "wall_accum"}
        assert json.dumps(meta, sort_keys=True) == json.dumps(ref_meta, sort_keys=True)
        for fields in (result, ref_result):
            for key in TIMING_FIELDS:
                fields.pop(key)
        assert json.dumps(result, sort_keys=True) == json.dumps(ref_result, sort_keys=True)

    def test_first_participation_builds_and_reads_out_once(
        self, first_participations, monkeypatch
    ):
        """One component build and one kNN readout per job: no
        throwaway session."""
        import repro.session as session_mod

        calls = {"build": 0, "knn": 0}
        real_build, real_score = session_mod.build_components, KnnProbe.score

        def counting_build(*args, **kwargs):
            calls["build"] += 1
            return real_build(*args, **kwargs)

        def counting_score(self, *args, **kwargs):
            calls["knn"] += 1
            return real_score(self, *args, **kwargs)

        monkeypatch.setattr(session_mod, "build_components", counting_build)
        monkeypatch.setattr(KnnProbe, "score", counting_score)
        # Decoding the reply releases its shm segments under that codec.
        raw_reply(coordinator_mod._device_round_worker(first_participations[1]))
        assert calls == {"build": 1, "knn": 1}

    def test_initial_learner_rejects_unknown_key(self, first_participations):
        arrays = overlay_arrays(first_participations[0])
        arrays["encoderX/w"] = np.zeros(3, dtype=np.float32)
        session = Session(tiny_config()).with_initial_learner(arrays)
        with pytest.raises(KeyError, match="encoderX/w"):
            session.run(stop_after=1)

    def test_initial_learner_rejects_wrong_shape(self, first_participations):
        arrays = overlay_arrays(first_participations[0])
        key = next(key for key, value in arrays.items() if value.ndim == 4)
        arrays[key] = np.zeros((1, 2, 3, 4), dtype=np.float32)
        session = Session(tiny_config()).with_initial_learner(arrays)
        with pytest.raises(ValueError, match="shape mismatch"):
            session.run(stop_after=1)

    def test_initial_learner_with_pending_resume_raises(self, first_participations):
        part = Session(tiny_config()).with_eval_points(1)
        part.run(stop_after=1)
        resumed = Session.from_state_dict(part.state_dict()).with_initial_learner(
            overlay_arrays(first_participations[0])
        )
        with pytest.raises(ValueError, match="resume"):
            resumed.run()


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

    @pytest.mark.parametrize("aggregator", ["fedavg-async", "best-of"])
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
        config = fleet_config(HETERO_DEVICES, rounds=2, aggregator="fedavg-async")
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


def repeat_fleet_config(rounds=6):
    """Four devices, two sampled per round: devices repeat, so a delta
    send diffs against the base its receiver cached."""
    return tiny_config(total_samples=96).with_(
        fleet=FleetConfig(
            devices=tuple(DeviceSpec() for _ in range(4)),
            rounds=rounds,
            participants=2,
            sampler="uniform",
        ),
        aggregator="fedavg",
    )


def root_array(value):
    """The array that owns ``value``'s memory."""
    while isinstance(value.base, np.ndarray):
        value = value.base
    return value


class TestStateHeldOnce:
    """The coordinator holds each device's state once: in-process
    replies skip the reply codec, so the stored state and the codec's
    receiver base are the same arrays, and a broadcast points every
    device at one read-only global."""

    def test_broadcast_shares_one_read_only_global(self):
        coordinator = FleetCoordinator(repeat_fleet_config(), workers=1)
        result = coordinator.run(rounds=2)
        assert result.rounds[-1].synchronized
        shared = coordinator._global_state
        sampled = [state for state in coordinator._device_states if state is not None]
        assert len(sampled) >= 2
        for state in sampled:
            for key, value in shared.items():
                assert state["learner"][key] is value, key
        for value in shared.values():
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0
        for key, value in coordinator.global_model_state.items():
            assert value.flags.writeable and value is not shared[key]

    @pytest.mark.parametrize("workers, encoded", [(1, False), (2, True)])
    def test_replies_use_a_codec_only_across_processes(self, workers, encoded, monkeypatch):
        flags, decoded = [], []
        real_collect = FleetCoordinator._collect
        real_decode = coordinator_mod.decode_state_payload

        def recording_collect(self, cast, outputs, wire):
            flags.extend(output["encoded"] for output in outputs)
            return real_collect(self, cast, outputs, wire)

        def counting_decode(payload):
            decoded.append(payload["wire"])
            return real_decode(payload)

        monkeypatch.setattr(FleetCoordinator, "_collect", recording_collect)
        monkeypatch.setattr(coordinator_mod, "decode_state_payload", counting_decode)
        result = FleetCoordinator(
            repeat_fleet_config(rounds=3), workers=workers, wire_format="delta"
        ).run()
        trained = sum(len(stats.devices) for stats in result.rounds)
        assert flags == [encoded] * trained
        assert len(decoded) == (trained if encoded else 0)

    @pytest.mark.parametrize("wire", ["delta", "delta-q8"])
    def test_repeating_devices_agree_across_workers_and_resume(
        self, wire, tmp_path, monkeypatch
    ):
        config = repeat_fleet_config()
        fulls = []
        real_run_jobs = coordinator_mod.run_jobs

        def recording_run_jobs(fn, payloads, **kwargs):
            fulls.extend(
                p["state"]["learner"]["full"] for p in payloads if p["state"] is not None
            )
            return real_run_jobs(fn, payloads, **kwargs)

        monkeypatch.setattr(coordinator_mod, "run_jobs", recording_run_jobs)
        serial = FleetCoordinator(config, workers=1, wire_format=wire).run().fingerprint()
        assert False in fulls  # some sends were deltas against a cached base
        parallel = FleetCoordinator(config, workers=2, wire_format=wire).run().fingerprint()
        assert parallel == serial
        splits = []
        for workers in (1, 2):
            part = FleetCoordinator(config, workers=workers, wire_format=wire)
            part.run(rounds=3)
            path = part.save_checkpoint(str(tmp_path / f"fleet-{workers}"))
            resumed = FleetCoordinator.resume(path, workers=workers, wire_format=wire)
            splits.append(resumed.run().fingerprint())
        assert splits[0] == splits[1]
        if wire == "delta":
            assert splits[0] == serial
        # Under delta-q8 a resumed coordinator's first send to each
        # device is a full, exact one where the straight run sent a
        # quantized delta, so its split runs agree with each other.

    @pytest.mark.parametrize("wire", ["delta", "delta-q8"])
    def test_device_state_is_held_once(self, wire):
        """Distinct array bytes reachable from the device states, the
        in-process receiver caches and the global: at most one copy of
        each device's learner arrays, plus one global."""
        coordinator = FleetCoordinator(repeat_fleet_config(), workers=1, wire_format=wire)
        coordinator.run(rounds=4)
        held = {}
        states = [state for state in coordinator._device_states if state is not None]
        caches = [
            cache
            for channel, cache in get_wire_format(wire)._cache.items()
            if channel.startswith(coordinator._channel_prefix + "/")
        ]
        assert len(caches) == len(states) >= 3
        for arrays in [state["learner"] for state in states] + caches:
            for value in arrays.values():
                held[id(root_array(value))] = value.nbytes
        for value in coordinator._global_state.values():
            held[id(root_array(value))] = value.nbytes
        bound = sum(
            value.nbytes for state in states for value in state["learner"].values()
        ) + sum(value.nbytes for value in coordinator._global_state.values())
        assert sum(held.values()) <= bound


class TestCheckpointResume:
    @pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
    def test_mid_run_resume_is_bitwise(self, backend, tmp_path):
        """Satellite: checkpoint after round 1 of 3, resume, finish —
        bitwise-identical to the uninterrupted run, on every backend."""
        config = fleet_config(
            (DeviceSpec(scenario="temporal"), DeviceSpec(scenario="drift")),
            rounds=3,
            aggregator="fedavg-async",
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


def _edit_checkpoint_config(path, edit):
    """Rewrite the config stored in a fleet checkpoint's ``meta``, the
    way a checkpoint written by an older build would read."""
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
        arrays = {key: archive[key].copy() for key in archive.files if key != "meta"}
    edit(meta["config"])
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


class TestOlderCheckpoints:
    """A checkpoint is outside bytes: ones written while FleetConfig had
    ``regions`` still resume, and ones naming a removed rule fail with
    the coordinator's named error."""

    def population_config(self, aggregator="fedavg-async", sampler="round-robin"):
        config = tiny_config()
        return config.with_(
            fleet=FleetConfig(
                devices=tuple(DeviceSpec() for _ in range(3)),
                rounds=3,
                participants=2,
                sampler=sampler,
            ),
            aggregator=aggregator,
        )

    def test_null_regions_key_resumes_bitwise(self, tmp_path):
        config = self.population_config()
        straight = FleetCoordinator(config).run()
        part = FleetCoordinator(config)
        part.run(rounds=1)
        path = part.save_checkpoint(str(tmp_path / "fleet"))
        _edit_checkpoint_config(path, lambda cfg: cfg["fleet"].update(regions=None))
        result = FleetCoordinator.resume(path).run()
        assert result.fingerprint() == straight.fingerprint()

    @pytest.mark.parametrize(
        "field, name, message",
        [
            ("aggregator", "fedavg-momentum", "config.aggregator: unknown aggregator"),
            ("aggregator", "hierarchical", "config.aggregator: unknown aggregator"),
            ("sampler", "weighted", "config.fleet.sampler: unknown client sampler"),
        ],
    )
    def test_removed_rule_is_a_named_error(self, tmp_path, field, name, message):
        part = FleetCoordinator(self.population_config())
        part.run(rounds=1)
        path = part.save_checkpoint(str(tmp_path / "fleet"))

        def rename(cfg):
            if field == "aggregator":
                cfg["aggregator"] = name
            else:
                cfg["fleet"]["sampler"] = name

        _edit_checkpoint_config(path, rename)
        with pytest.raises(ValueError, match=message) as excinfo:
            FleetCoordinator.resume(path)
        assert not isinstance(excinfo.value, (KeyError, TypeError))
