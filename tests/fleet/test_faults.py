"""FaultPlan chaos harness: deterministic seeded draws, and the
coordinator-level properties — any seeded plan leaves the fleet
resumable, never deadlocks a round, and replays fingerprint-identical
from the same plan + seed."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import StreamExperimentConfig
from repro.fleet import DeviceSpec, FaultPlan, FleetConfig, FleetCoordinator
from repro.fleet.faults import DeviceFaults, fault_rng

PLAN_SETTINGS = dict(max_examples=50, deadline=None)
FLEET_SETTINGS = dict(max_examples=5, deadline=None)

#: The keys of one FleetCoordinator.timings entry: the round, the wire
#: format, and the fields of the round's JobTimings.
TIMING_RECORD_KEYS = {
    "round",
    "wire",
    "jobs",
    "workers",
    "wall_s",
    "compute_s",
    "transport_s",
    "serialize_s",
    "merge_s",
    "crashes",
}


def tiny_config(**overrides):
    base = dict(
        dataset="cifar10",
        image_size=8,
        stc=8,
        total_samples=48,
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


def chaos_config(plan, devices=3, rounds=2, deadline=1.0):
    return tiny_config().with_(
        fleet=FleetConfig(
            devices=tuple(DeviceSpec() for _ in range(devices)),
            rounds=rounds,
            round_deadline_s=deadline,
            fault_plan=plan,
        ),
        aggregator="fedavg",
    )


def fingerprint(result):
    return json.dumps(result.fingerprint(), sort_keys=True, default=str)


device_faults = st.builds(
    DeviceFaults,
    straggler_delay_s=st.sampled_from([0.0, 0.5, 1.5, 2.5]),
    dropout_prob=st.sampled_from([0.0, 0.3, 1.0]),
    crash_at_round=st.sampled_from([None, 0, 1]),
)

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**31 - 1),
    default=device_faults,
    overrides=st.dictionaries(
        st.integers(0, 2), device_faults, max_size=2
    ).map(lambda d: tuple(sorted(d.items()))),
)


class TestPlanDeterminism:
    @settings(**PLAN_SETTINGS)
    @given(
        seed=st.integers(0, 2**31 - 1),
        round_index=st.integers(0, 100),
        device_index=st.integers(0, 1000),
    )
    def test_fault_rng_is_stateless_and_stable(self, seed, round_index, device_index):
        a = fault_rng(seed, round_index, device_index).random(4)
        b = fault_rng(seed, round_index, device_index).random(4)
        np.testing.assert_array_equal(a, b)

    @settings(**PLAN_SETTINGS)
    @given(plan=fault_plans, round_index=st.integers(0, 5))
    def test_draws_replay_identically(self, plan, round_index):
        replay = FaultPlan.from_dict(plan.to_dict())
        for device in range(4):
            assert plan.drops(round_index, device) == replay.drops(
                round_index, device
            )
            assert plan.delay(device) == replay.delay(device)
            assert plan.crashes(round_index, device) == replay.crashes(
                round_index, device
            )

    @settings(**PLAN_SETTINGS)
    @given(plan=fault_plans)
    def test_dict_round_trip(self, plan):
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        json.loads(json.dumps(plan.to_dict()))  # strict JSON

    def test_extreme_probabilities(self):
        always = FaultPlan(seed=0, default=DeviceFaults(dropout_prob=1.0))
        never = FaultPlan(seed=0, default=DeviceFaults(dropout_prob=0.0))
        for r in range(4):
            for d in range(4):
                assert always.drops(r, d)
                assert not never.drops(r, d)
        assert never.is_noop
        assert not always.is_noop

    def test_validation(self):
        with pytest.raises(ValueError, match="dropout_prob"):
            DeviceFaults(dropout_prob=1.5)
        with pytest.raises(ValueError, match="straggler_delay_s"):
            DeviceFaults(straggler_delay_s=-1.0)
        with pytest.raises(ValueError, match="crash_at_round"):
            DeviceFaults(crash_at_round=-2)
        with pytest.raises(ValueError):
            FleetConfig(
                devices=(DeviceSpec(),),
                rounds=1,
                fault_plan=FaultPlan(
                    seed=0, overrides=((5, DeviceFaults(dropout_prob=0.5)),)
                ),
            )


class TestCoordinatorUnderChaos:
    @settings(**FLEET_SETTINGS)
    @given(plan=fault_plans)
    def test_replay_resumable_and_no_deadlock(self, plan, tmp_path_factory):
        """The property matrix: under ANY seeded plan the fleet (i)
        completes every round (no deadlock, even all-dropout rounds),
        (ii) replays fingerprint-identical from plan + seed, and (iii)
        resumes bitwise from a mid-run checkpoint."""
        config = chaos_config(plan)

        full = FleetCoordinator(config).run()
        assert len(full.rounds) == 2  # (i) completed

        replay = FleetCoordinator(config).run()
        assert fingerprint(full) == fingerprint(replay)  # (ii)

        first = FleetCoordinator(config)
        first.run(rounds=1)
        path = first.save_checkpoint(
            str(tmp_path_factory.mktemp("chaos") / "mid")
        )
        resumed = FleetCoordinator.resume(path).run()
        assert fingerprint(full) == fingerprint(resumed)  # (iii)

    def test_all_dropout_round_is_not_synchronized(self):
        plan = FaultPlan(seed=3, default=DeviceFaults(dropout_prob=1.0))
        coordinator = FleetCoordinator(chaos_config(plan))
        result = coordinator.run()
        for stats in result.rounds:
            assert not stats.synchronized
            assert stats.devices == []
            assert len(stats.dropped) == 3
        # no global model and nobody trained: accuracy is None-encoded
        assert stats.to_dict()["global_knn_accuracy"] is None
        # every round still leaves one full timing record, of no jobs
        for entry in coordinator.timings:
            assert set(entry) == TIMING_RECORD_KEYS
            assert entry["jobs"] == 0
            assert entry["crashes"] == 0

    def test_cast_phase_partitions_the_sampled_devices(self):
        """The cast phase alone: device 0 drops, 1 crashes, 2 misses the
        deadline, 4 is not sampled; the round records that cast."""
        plan = FaultPlan(
            seed=0,
            overrides=(
                (0, DeviceFaults(dropout_prob=1.0)),
                (1, DeviceFaults(crash_at_round=0)),
                (2, DeviceFaults(straggler_delay_s=2.5)),
            ),
        )
        config = tiny_config().with_(
            fleet=FleetConfig(
                devices=tuple(DeviceSpec() for _ in range(5)),
                rounds=1,
                participants=4,
                sampler="round-robin",
                round_deadline_s=1.0,
                fault_plan=plan,
            ),
            aggregator="fedavg",
        )
        sampled, active, dropped, late, crashing = FleetCoordinator(config)._cast()
        assert sorted(active + dropped) == sorted(sampled)
        assert not set(active) & set(dropped)
        assert set(late) <= set(active)
        assert crashing <= set(active)
        assert sorted(sampled) == [0, 1, 2, 3]
        assert (dropped, late, crashing) == ([0], [2], {1})
        # the round itself records the same cast
        (stats,) = FleetCoordinator(config).run().rounds
        assert stats.participants == sorted(sampled)
        assert stats.dropped == dropped
        assert stats.late == late
        assert [d.device for d in stats.devices] == [f"device{i}" for i in active]

    def test_straggler_report_is_buffered_then_aggregated(self):
        # device 1 is 2 deadlines late: its round-0 report joins round 2
        plan = FaultPlan(
            seed=0, overrides=((1, DeviceFaults(straggler_delay_s=2.5)),)
        )
        config = chaos_config(plan, devices=3, rounds=3, deadline=1.0)
        coordinator = FleetCoordinator(config)
        coordinator.run(rounds=1)
        assert len(coordinator._pending) == 1
        assert coordinator._pending[0]["arrival_round"] == 2
        coordinator.run()
        # round 0's report matured at round 2; rounds 1 and 2 are still
        # in flight when the schedule ends
        assert [p["dispatch_round"] for p in coordinator._pending] == [1, 2]
        late_rounds = [s.late for s in coordinator.result().rounds]
        assert late_rounds == [[1], [1], [1]]

    def test_pending_reports_survive_checkpoint(self, tmp_path):
        plan = FaultPlan(
            seed=0, overrides=((0, DeviceFaults(straggler_delay_s=9.5)),)
        )
        config = chaos_config(plan, devices=2, rounds=3, deadline=1.0)
        first = FleetCoordinator(config)
        first.run(rounds=1)
        assert len(first._pending) == 1
        path = first.save_checkpoint(str(tmp_path / "pending"))
        resumed = FleetCoordinator.resume(path)
        assert len(resumed._pending) == 1
        entry = resumed._pending[0]
        assert entry["device_index"] == 0
        assert set(entry["model_state"]) == set(first._pending[0]["model_state"])
        assert fingerprint(resumed.run()) == fingerprint(
            FleetCoordinator(config).run()
        )

    def test_crash_fault_recovers_bitwise_under_pool(self):
        plan = FaultPlan(
            seed=0, overrides=((1, DeviceFaults(crash_at_round=0)),)
        )
        config = chaos_config(plan, devices=3, rounds=2)
        serial = FleetCoordinator(config, workers=1).run()
        parallel_coordinator = FleetCoordinator(config, workers=3)
        parallel = parallel_coordinator.run()
        assert fingerprint(serial) == fingerprint(parallel)
        # the injected crash actually happened (then recovered)
        assert sum(t["crashes"] for t in parallel_coordinator.timings) >= 1
