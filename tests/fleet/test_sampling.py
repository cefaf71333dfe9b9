"""Client samplers: registry semantics, K-of-N participation counts,
bitwise mid-schedule resume, and the K == N identity contract."""

import json
import os
import tempfile

import numpy as np
import pytest

from repro.experiments.config import StreamExperimentConfig
from repro.fleet import DeviceSpec, FleetConfig, FleetCoordinator
from repro.fleet.sampling import (
    ClientSampler,
    RoundRobinSampler,
    create_client_sampler,
)
from repro.registry import CLIENT_SAMPLERS, UnknownComponentError

SAMPLER_NAMES = ("uniform", "round-robin")


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


def population_config(devices=4, rounds=2, participants=None, sampler=None, **kw):
    return tiny_config(**kw).with_(
        fleet=FleetConfig(
            devices=tuple(DeviceSpec() for _ in range(devices)),
            rounds=rounds,
            participants=participants,
            sampler=sampler,
        ),
        aggregator="fedavg",
    )


def fingerprint(result):
    return json.dumps(result.fingerprint(), sort_keys=True, default=str)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(SAMPLER_NAMES) <= set(CLIENT_SAMPLERS.names())

    def test_aliases_resolve(self):
        assert CLIENT_SAMPLERS.get("random").name == "uniform"
        assert CLIENT_SAMPLERS.get("rr").name == "round-robin"

    def test_did_you_mean(self):
        with pytest.raises(UnknownComponentError, match="uniform"):
            CLIENT_SAMPLERS.get("unifrom")

    def test_create_builds_instances(self):
        for name in SAMPLER_NAMES:
            assert isinstance(create_client_sampler(name), ClientSampler)

    def test_coordinator_rejects_unknown_sampler(self):
        config = population_config(participants=2, sampler="pigeon")
        with pytest.raises(ValueError, match="config.fleet.sampler"):
            FleetCoordinator(config)

    def test_coordinator_canonicalizes_alias(self):
        config = population_config(participants=2, sampler="rr")
        coordinator = FleetCoordinator(config)
        assert coordinator.fleet.sampler == "round-robin"


class TestSampleContract:
    """sample() returns k sorted distinct in-range indices."""

    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    @pytest.mark.parametrize("k", [1, 3, 7, 10])
    def test_sorted_distinct_in_range(self, name, k):
        sampler = create_client_sampler(name)
        rng = np.random.default_rng(0)
        for round_index in range(5):
            picked = sampler.sample(round_index, 10, k, rng)
            assert list(picked) == sorted(set(int(i) for i in picked))
            assert len(picked) == k
            assert all(0 <= i < 10 for i in picked)

    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_k_equals_n_selects_everyone(self, name):
        sampler = create_client_sampler(name)
        rng = np.random.default_rng(1)
        for round_index in range(3):
            picked = sampler.sample(round_index, 6, 6, rng)
            assert list(picked) == list(range(6))

    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_invalid_k_rejected(self, name):
        sampler = create_client_sampler(name)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sampler.sample(0, 4, 0, rng)
        with pytest.raises(ValueError):
            sampler.sample(0, 4, 5, rng)

    def test_round_robin_cycles_without_repeats(self):
        sampler = RoundRobinSampler()
        rng = np.random.default_rng(0)
        seen = []
        for round_index in range(3):
            seen.extend(sampler.sample(round_index, 6, 2, rng))
        # 3 rounds x K=2 over 6 devices = exactly one full cycle
        assert sorted(seen) == list(range(6))

    def test_round_robin_state_round_trips(self):
        a = RoundRobinSampler()
        rng = np.random.default_rng(0)
        a.sample(0, 7, 3, rng)
        b = RoundRobinSampler()
        b.load_state_dict(a.state_dict())
        assert a.sample(1, 7, 3, rng) == b.sample(1, 7, 3, rng)


class TestParticipationCounts:
    def test_uniform_covers_devices_statistically(self):
        sampler = create_client_sampler("uniform")
        rng = np.random.default_rng(7)
        counts = np.zeros(10)
        rounds = 400
        for round_index in range(rounds):
            for i in sampler.sample(round_index, 10, 3, rng):
                counts[i] += 1
        expected = rounds * 3 / 10
        # loose statistical tolerance: every device participates and no
        # device dominates
        assert counts.min() > expected * 0.7
        assert counts.max() < expected * 1.3

    def test_coordinator_trains_exactly_k_per_round(self):
        config = population_config(
            devices=5, rounds=3, participants=2, sampler="uniform"
        )
        result = FleetCoordinator(config).run()
        for stats in result.rounds:
            assert len(stats.participants) == 2
            assert len(stats.devices) == 2


class TestResume:
    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_mid_schedule_resume_is_bitwise(self, name, tmp_path):
        """Interrupting the sampling schedule and resuming draws the
        identical remaining participant sets (sampler RNG + cursor ride
        the checkpoint)."""
        config = population_config(
            devices=5, rounds=4, participants=2, sampler=name
        )
        full = FleetCoordinator(config).run()

        first = FleetCoordinator(config)
        first.run(rounds=2)
        path = first.save_checkpoint(str(tmp_path / "mid"))
        resumed = FleetCoordinator.resume(path).run()

        assert fingerprint(full) == fingerprint(resumed)
        assert [s.participants for s in full.rounds] == [
            s.participants for s in resumed.rounds
        ]

    def test_sampler_meta_is_strict_json(self):
        config = population_config(devices=4, rounds=2, participants=2)
        coordinator = FleetCoordinator(config)
        coordinator.run(rounds=1)
        meta = coordinator.state_dict()["meta"]
        json.loads(json.dumps(meta))  # raises on non-JSON types
        assert "sampler" in meta


class TestKEqualsNIdentity:
    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_full_participation_matches_unsampled_rounds(self, name):
        """participants == N under every sampler trains everyone, every
        round — device results are bitwise-identical to the plain
        synchronous path (only the bookkeeping columns differ)."""
        plain = FleetCoordinator(population_config(devices=3, rounds=2)).run()
        sampled = FleetCoordinator(
            population_config(devices=3, rounds=2, participants=3, sampler=name)
        ).run()
        assert [s.participants for s in sampled.rounds] == [[0, 1, 2]] * 2
        plain_fp = plain.fingerprint()
        sampled_fp = sampled.fingerprint()
        # identical everywhere except the population bookkeeping and
        # the config's population fields
        assert plain_fp["device_results"] == sampled_fp["device_results"]
        assert (
            plain_fp["final_global_knn_accuracy"]
            == sampled_fp["final_global_knn_accuracy"]
        )
        for p_round, s_round in zip(plain_fp["rounds"], sampled_fp["rounds"]):
            assert p_round["devices"] == s_round["devices"]
            assert (
                p_round["global_knn_accuracy"] == s_round["global_knn_accuracy"]
            )
