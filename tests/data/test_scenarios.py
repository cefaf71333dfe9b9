"""Tests for the stream-scenario layer: registry semantics, the
StreamSource protocol, per-scenario generative behavior, label
isolation, eager validation, and state round trips."""

import numpy as np
import pytest

from repro.data.drift import DriftStream
from repro.data.scenarios import (
    BurstyStream,
    CorruptedStream,
    CyclicDriftStream,
    ImbalancedStream,
    StreamSource,
    create_scenario,
    disjoint_phases,
)
from repro.data.stream import TemporalStream, measure_stc
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
from repro.registry import SCENARIOS, register_scenario, scenario_names


@pytest.fixture
def dataset():
    return SyntheticImageDataset(
        SyntheticConfig("scenario-test", num_classes=8, image_size=8)
    )


def make(name, dataset, seed=0, stc=4, total=64, **options):
    return create_scenario(
        name,
        dataset=dataset,
        stc=stc,
        rng=np.random.default_rng(seed),
        total_samples=total,
        **options,
    )


class TestScenarioRegistry:
    def test_builtin_roster(self):
        names = scenario_names()
        assert set(names) >= {
            "temporal",
            "drift",
            "cyclic-drift",
            "bursty",
            "imbalanced",
            "corrupted",
        }
        assert len(names) >= 6

    def test_aliases_resolve(self):
        assert SCENARIOS.get("stationary").name == "temporal"
        assert SCENARIOS.get("cyclic").name == "cyclic-drift"
        assert SCENARIOS.get("recurring").name == "cyclic-drift"
        assert SCENARIOS.get("long-tail").name == "imbalanced"
        assert SCENARIOS.get("noisy").name == "corrupted"
        assert SCENARIOS.get("class-incremental").name == "drift"

    def test_unknown_name_suggests(self):
        with pytest.raises(KeyError, match="did you mean 'cyclic-drift'"):
            SCENARIOS.get("cyclic-drif")
        # UnknownComponentError doubles as ValueError (legacy contract)
        with pytest.raises(ValueError, match="unknown scenario"):
            SCENARIOS.get("not-a-scenario")

    def test_create_scenario_returns_stream_source(self, dataset):
        for name in scenario_names():
            source = make(name, dataset)
            assert isinstance(source, StreamSource), name

    def test_explicit_option_typo_rejected(self, dataset):
        with pytest.raises(TypeError, match="does not accept"):
            make("temporal", dataset, num_phasez=3)

    def test_scenario_specific_options_forwarded(self, dataset):
        source = make("cyclic-drift", dataset, num_environments=4, cycles=1)
        assert len(source.phases) == 4

    def test_non_stream_source_factory_rejected(self, dataset):
        @register_scenario("bad-scenario-test")
        def bad_factory(dataset, stc, rng):
            return object()

        try:
            with pytest.raises(TypeError, match="expected a StreamSource"):
                make("bad-scenario-test", dataset)
        finally:
            SCENARIOS.unregister("bad-scenario-test")

    def test_plugin_scenario_usable_by_name(self, dataset):
        @register_scenario("replay-test", aliases=("rp-test",))
        def replay(dataset, stc, rng):
            return TemporalStream(dataset, stc, rng)

        try:
            source = make("rp-test", dataset)
            assert isinstance(source, TemporalStream)
        finally:
            SCENARIOS.unregister("replay-test")


class TestLabelIsolation:
    """Every scenario's segments keep the evaluation-only label contract:
    labels stay in range, match the image count, and (for wrappers)
    pass through untouched."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_segments_well_formed(self, dataset, name):
        source = make(name, dataset)
        position = 0
        for segment in source.segments(8, 24):
            assert segment.images.shape == (len(segment), 3, 8, 8)
            assert segment.images.dtype == np.float32
            assert float(segment.images.min()) >= 0.0
            assert float(segment.images.max()) <= 1.0
            assert segment.labels.shape == (len(segment),)
            assert segment.labels.dtype == np.int64
            assert segment.labels.min() >= 0
            assert segment.labels.max() < dataset.num_classes
            assert segment.start_index == position
            position = segment.end_index
        assert source.position == 24

    def test_corrupted_wrapper_passes_labels_through(self, dataset):
        """The wrapper transforms images only: every emitted label array
        is exactly what the wrapped base produced for that window."""
        rng = np.random.default_rng(3)
        base = TemporalStream(dataset, 4, rng)
        emitted = []
        original = base.next_segment

        def recording(segment_size):
            segment = original(segment_size)
            emitted.append(segment.labels.copy())
            return segment

        base.next_segment = recording
        wrapped = CorruptedStream(base, rng, phase_length=8, noise_std=0.3)
        outputs = [wrapped.next_segment(8).labels for _ in range(6)]
        assert len(emitted) == 6
        for got, want in zip(outputs, emitted):
            np.testing.assert_array_equal(got, want)

    def test_corrupted_clean_phase_passes_through_then_shifts(self, dataset):
        plain = make("temporal", dataset, seed=5)
        wrapped = make(
            "corrupted",
            dataset,
            seed=5,
            corruption_phase_length=8,
            corruption_levels=2,
            noise_std=0.3,
        )
        assert wrapped.corruption_level(0) == 0
        assert wrapped.corruption_level(8) == 1
        # level-0 phase: bitwise identical to the identically-seeded base
        clean_p, clean_w = plain.next_segment(8), wrapped.next_segment(8)
        np.testing.assert_array_equal(clean_p.images, clean_w.images)
        # level-1 phase: same labels, corrupted images
        shifted_p, shifted_w = plain.next_segment(8), wrapped.next_segment(8)
        np.testing.assert_array_equal(shifted_p.labels, shifted_w.labels)
        assert float(np.abs(shifted_p.images - shifted_w.images).max()) > 0.01
        assert float(shifted_w.images.min()) >= 0.0
        assert float(shifted_w.images.max()) <= 1.0


class TestScenarioProcesses:
    def test_cyclic_drift_environments_recur(self, dataset):
        source = make("cyclic-drift", dataset, total=64, num_environments=2)
        # phase length 64 // (2 * 2) = 16: A B A B
        labels = source.next_labels(64)
        env_a = set(labels[:16]) | set(labels[32:48])
        env_b = set(labels[16:32]) | set(labels[48:])
        assert env_a <= {0, 1, 2, 3}
        assert env_b <= {4, 5, 6, 7}

    def test_cyclic_drift_cycles_back_unlike_drift(self, dataset):
        cyclic = make("cyclic-drift", dataset, total=32, num_environments=2, cycles=1)
        assert isinstance(cyclic, CyclicDriftStream)
        # past the final phase, DriftStream clamps but cyclic recurs
        assert cyclic.phase_index(0) == 0
        assert cyclic.phase_index(16) == 1
        assert cyclic.phase_index(32) == 0
        plain = make("drift", dataset, total=32)
        assert isinstance(plain, DriftStream)
        assert plain.phase_index(10_000) == len(plain.phases) - 1

    def test_bursty_run_lengths_vary(self, dataset):
        source = make("bursty", dataset, stc=2, total=512, burst_stc=16)
        assert isinstance(source, BurstyStream)
        labels = source.next_labels(512)
        changes = np.flatnonzero(labels[1:] != labels[:-1]) + 1
        runs = np.diff(np.concatenate([[0], changes, [labels.size]]))
        assert 2 in runs[:-1] and 16 in runs[:-1]  # both regimes occur
        assert measure_stc(labels) > 2.0  # bursts raise the empirical STC

    def test_bursty_validation(self, dataset):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="burst_stc"):
            BurstyStream(dataset, 4, rng, burst_stc=0)
        with pytest.raises(ValueError, match="burst_prob"):
            BurstyStream(dataset, 4, rng, burst_prob=1.5)

    def test_imbalanced_head_dominates_tail(self, dataset):
        source = make("imbalanced", dataset, stc=1, total=4096, imbalance=0.05)
        assert isinstance(source, ImbalancedStream)
        labels = source.next_labels(4096)
        counts = np.bincount(labels, minlength=dataset.num_classes)
        assert counts[0] > 4 * counts[-1]
        assert counts.min() >= 0  # tail may be rare but never negative

    def test_imbalanced_probs_normalized(self, dataset):
        source = make("imbalanced", dataset, imbalance=0.1)
        assert source.class_probs.sum() == pytest.approx(1.0)
        assert (np.diff(source.class_probs) < 0).all()  # strictly decaying

    def test_imbalanced_validation(self, dataset):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="imbalance"):
            ImbalancedStream(dataset, 4, rng, imbalance=0.0)
        with pytest.raises(ValueError, match="imbalance"):
            ImbalancedStream(dataset, 4, rng, imbalance=2.0)

    def test_corrupted_cannot_wrap_itself(self, dataset):
        with pytest.raises(ValueError, match="cannot wrap itself"):
            make("corrupted", dataset, base="noisy")

    def test_corrupted_composes_over_drift(self, dataset):
        source = make("corrupted", dataset, base="drift", num_phases=2)
        assert isinstance(source, CorruptedStream)
        assert isinstance(source.base, DriftStream)
        labels = np.concatenate([s.labels for s in source.segments(8, 32)])
        # first drift phase only exposes the unlocked class slice
        assert set(labels[:16].tolist()) <= set(range(4))

    def test_corrupted_validation(self, dataset):
        base = make("temporal", dataset)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="phase_length"):
            CorruptedStream(base, rng, phase_length=0)
        with pytest.raises(ValueError, match="levels"):
            CorruptedStream(base, rng, phase_length=4, levels=1)
        with pytest.raises(ValueError, match="noise_std"):
            CorruptedStream(base, rng, phase_length=4, noise_std=-0.1)

    def test_disjoint_phases_partition(self):
        phases = disjoint_phases(8, 3)
        flat = [c for phase in phases for c in phase]
        assert sorted(flat) == list(range(8))
        assert len(phases) == 3
        with pytest.raises(ValueError, match="num_phases"):
            disjoint_phases(8, 0)
        with pytest.raises(ValueError, match="one class per phase"):
            disjoint_phases(2, 5)


class TestEagerValidation:
    """segments() must reject bad arguments at the call, not on first
    iteration (the old generator-function behavior)."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_scenarios_validate_segments_eagerly(self, dataset, name):
        source = make(name, dataset)
        with pytest.raises(ValueError, match="segment_size must be >= 1, got 0"):
            source.segments(0, 16)
        with pytest.raises(ValueError, match="total_samples must be >= 1, got -3"):
            source.segments(4, -3)

    def test_temporal_stream_validates_eagerly(self, dataset):
        stream = TemporalStream(dataset, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="segment_size must be >= 1, got 0"):
            stream.segments(0, 10)

    def test_drift_stream_validates_eagerly_with_field_messages(self, dataset):
        stream = DriftStream(
            dataset, 4, np.random.default_rng(0), phases=[[0, 1]], phase_length=8
        )
        with pytest.raises(ValueError, match="segment_size must be >= 1, got 0"):
            stream.segments(0, 10)
        with pytest.raises(ValueError, match="total_samples must be >= 1, got 0"):
            stream.segments(4, 0)


class TestStateRoundTrip:
    """state_dict + shared-RNG restore reproduces the label process for
    every scenario (the mechanism behind Session checkpoint/resume)."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_state_dict_resumes_stream_process(self, dataset, name):
        # every scenario (including the corrupted wrapper, which shares
        # one generator with its base) exposes the driving rng as .rng
        source = make(name, dataset)
        source.next_segment(12)
        state = source.state_dict()
        rng_state = source.rng.bit_generator.state
        after = source.next_segment(16)

        clone = make(name, dataset)
        clone.load_state_dict(state)
        clone.rng.bit_generator.state = rng_state
        replay = clone.next_segment(16)
        np.testing.assert_array_equal(after.labels, replay.labels)
        np.testing.assert_array_equal(after.images, replay.images)
        assert after.start_index == replay.start_index

    @pytest.mark.parametrize("name", ["adversarial", "bursty(imbalanced)"])
    def test_str_dtype_checkpoints_still_resume(self, dataset, name):
        """Lookahead arrays checkpointed with the ``str(dtype)`` spelling
        (``"float32"``, the format before the shared wire codec) load
        and resume bitwise."""
        respelled = []

        def respell(value):
            if isinstance(value, list):
                return [respell(v) for v in value]
            if not isinstance(value, dict):
                return value
            if {"dtype", "shape", "data"} <= value.keys():
                respelled.append(value["dtype"])
                return dict(value, dtype=str(np.dtype(value["dtype"])))
            return {key: respell(v) for key, v in value.items()}

        source = make(name, dataset)
        source.next_segment(12)
        state = respell(source.state_dict())
        rng_state = source.rng.bit_generator.state
        after = source.next_segment(16)
        assert respelled

        clone = make(name, dataset)
        clone.load_state_dict(state)
        clone.rng.bit_generator.state = rng_state
        replay = clone.next_segment(16)
        np.testing.assert_array_equal(after.labels, replay.labels)
        np.testing.assert_array_equal(after.images, replay.images)

    def test_drift_state_dict_json_serializable(self, dataset):
        import json

        stream = DriftStream(
            dataset, 3, np.random.default_rng(1), phases=[[0, 1], [2]], phase_length=8
        )
        stream.next_labels(10)
        state = json.loads(json.dumps(stream.state_dict()))
        clone = DriftStream(
            dataset, 3, np.random.default_rng(1), phases=[[0, 1], [2]], phase_length=8
        )
        clone.load_state_dict(state)
        assert clone.position == stream.position
