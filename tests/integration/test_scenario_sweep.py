"""Integration tests for scenario threading: Session runs under every
scenario, bitwise checkpoint/resume with ``config.scenario`` set, the
scenario-sweep harness, and its serial/parallel equivalence."""

import json

import numpy as np
import pytest

from repro.experiments.config import StreamExperimentConfig
from repro.experiments.parallel import SweepSpec, result_fingerprint, run_sweep
from repro.experiments.scenario_sweep import (
    format_scenario_sweep,
    run_scenario_sweep,
)
from repro.registry import scenario_names
from repro.session import Session, config_from_dict, config_to_dict


@pytest.fixture
def tiny_config():
    return StreamExperimentConfig(
        dataset="cifar10",
        image_size=8,
        stc=4,
        total_samples=64,
        buffer_size=8,
        encoder_widths=(8, 16),
        encoder_blocks=1,
        projection_dim=8,
        probe_train_per_class=2,
        probe_test_per_class=2,
        probe_epochs=2,
        seed=0,
    )


class TestSessionScenario:
    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    def test_session_runs_every_scenario(self, tiny_config, scenario):
        result = (
            Session(tiny_config, "fifo")
            .with_scenario(scenario)
            .with_eval_points(1)
            .run()
        )
        assert result.config.scenario == scenario
        assert len(result.curve) >= 1
        assert 0.0 <= result.info["final_knn_accuracy"] <= 1.0

    def test_with_scenario_alias_canonicalized(self, tiny_config):
        result = (
            Session(tiny_config, "fifo")
            .with_scenario("cyclic")
            .with_eval_points(1)
            .run()
        )
        assert result.config.scenario == "cyclic-drift"

    def test_unknown_scenario_fails_before_building(self, tiny_config):
        with pytest.raises(KeyError, match="did you mean"):
            Session(tiny_config, "fifo").with_scenario("cyclic-drif").run()

    def test_scenario_changes_the_stream(self, tiny_config):
        temporal = Session(tiny_config, "fifo").with_eval_points(1).run()
        imbalanced = (
            Session(tiny_config, "fifo")
            .with_scenario("imbalanced")
            .with_eval_points(1)
            .run()
        )
        # same seed, different generative process -> different training
        assert temporal.final_loss != imbalanced.final_loss

    def test_scenario_serializes_into_config_payload(self, tiny_config):
        config = tiny_config.with_(scenario="bursty")
        payload = json.loads(json.dumps(config_to_dict(config)))
        assert payload["scenario"] == "bursty"
        assert config_from_dict(payload) == config
        # old payloads without the field default to temporal
        del payload["scenario"]
        assert config_from_dict(payload).scenario == "temporal"

    @pytest.mark.parametrize(
        "scenario",
        ["cyclic-drift", "corrupted", "corrupted(bursty(imbalanced))"],
    )
    def test_checkpoint_resume_bitwise_with_scenario(
        self, tiny_config, tmp_path, scenario
    ):
        """Resume under a non-default scenario reproduces the
        uninterrupted run's step statistics bit for bit — including the
        corrupted wrapper's noise draws."""
        config = tiny_config.with_(scenario=scenario)
        full_stats = []
        full = (
            Session(config, "contrast-scoring")
            .with_eval_points(2)
            .on_step(lambda learner, stats: full_stats.append(stats))
            .run()
        )

        split = 3
        part = Session(config, "contrast-scoring").with_eval_points(2)
        part.run(stop_after=split)
        path = str(tmp_path / f"{scenario}.npz")
        part.save_checkpoint(path)

        # the checkpoint carries the scenario inside the config
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
        assert meta["config"]["scenario"] == scenario

        resumed_stats = []
        resumed = (
            Session.resume(path)
            .on_step(lambda learner, stats: resumed_stats.append(stats))
            .run()
        )
        assert len(resumed_stats) == len(full_stats) - split
        for a, b in zip(full_stats[split:], resumed_stats):
            assert a.iteration == b.iteration
            assert a.loss == b.loss  # bitwise
            assert a.num_scored == b.num_scored
        assert resumed.final_accuracy == full.final_accuracy
        assert resumed.curve.accuracies == full.curve.accuracies
        assert resumed.info == full.info
        assert resumed.config.scenario == scenario


class TestScenarioSweep:
    def test_grid_covers_all_cells(self, tiny_config):
        result = run_scenario_sweep(
            tiny_config,
            scenarios=("temporal", "cyclic"),
            policies=("fifo", "cs"),
            seeds=(0,),
        )
        assert result.scenarios == ("temporal", "cyclic-drift")  # canonical
        assert result.policies == ("fifo", "contrast-scoring")
        for scenario in result.scenarios:
            for policy in result.policies:
                assert (scenario, policy) in result.knn_accuracy
                assert (scenario, policy) in result.buffer_diversity
                assert len(result.runs[(scenario, policy)]) == 1
        assert result.robustness_gap("fifo") >= 0.0

    def test_default_roster_is_every_registered_scenario(self, tiny_config):
        result = run_scenario_sweep(
            tiny_config.with_(total_samples=16, buffer_size=8),
            policies=("fifo",),
        )
        assert set(result.scenarios) == set(scenario_names())

    def test_validation(self, tiny_config):
        with pytest.raises(ValueError, match="seed"):
            run_scenario_sweep(tiny_config, seeds=())
        with pytest.raises(ValueError, match="scenario"):
            run_scenario_sweep(tiny_config, scenarios=())

    def test_alias_and_canonical_roster_entries_deduped(self, tiny_config):
        """An alias plus its canonical name must not double a grid row."""
        result = run_scenario_sweep(
            tiny_config,
            scenarios=("cyclic", "cyclic-drift"),
            policies=("fifo", "first-in-first-out"),
            seeds=(0,),
        )
        assert result.scenarios == ("cyclic-drift",)
        assert result.policies == ("fifo",)
        assert len(result.runs[("cyclic-drift", "fifo")]) == 1

    def test_parallel_equals_serial_bitwise(self, tiny_config):
        kwargs = dict(
            scenarios=("bursty", "corrupted"),
            policies=("fifo", "contrast-scoring"),
            seeds=(0,),
        )
        serial = run_scenario_sweep(tiny_config, workers=1, **kwargs)
        parallel = run_scenario_sweep(tiny_config, workers=2, **kwargs)
        for key in serial.runs:
            for a, b in zip(serial.runs[key], parallel.runs[key]):
                assert result_fingerprint(a) == result_fingerprint(b)
        assert serial.knn_accuracy == parallel.knn_accuracy
        assert serial.buffer_diversity == parallel.buffer_diversity

    def test_scenario_rides_spec_payload_across_the_wire(self, tiny_config):
        spec = SweepSpec(config=tiny_config.with_(scenario="imbalanced"), policy="fifo")
        restored = SweepSpec.from_payload(
            json.loads(json.dumps(spec.to_payload()))
        )
        assert restored.config.scenario == "imbalanced"
        (direct,) = run_sweep([spec])
        (roundtripped,) = run_sweep([restored])
        assert result_fingerprint(direct) == result_fingerprint(roundtripped)
        assert direct.config.scenario == "imbalanced"

    def test_composition_rides_spec_payload_across_the_wire(self, tiny_config):
        """Composition strings serialize into sweep payloads bitwise —
        the canonical string comes back through a JSON round trip and
        the run fingerprint is unchanged."""
        composition = "corrupted(bursty(imbalanced),noise_std=0.3)"
        spec = SweepSpec(
            config=tiny_config.with_(scenario=composition), policy="fifo"
        )
        restored = SweepSpec.from_payload(
            json.loads(json.dumps(spec.to_payload()))
        )
        assert restored.config.scenario == composition
        (direct,) = run_sweep([spec])
        (roundtripped,) = run_sweep([restored])
        assert result_fingerprint(direct) == result_fingerprint(roundtripped)
        assert direct.config.scenario == composition

    def test_composition_grid_rows_parallel_equals_serial(self, tiny_config):
        kwargs = dict(
            scenarios=("corrupted(bursty)", "label-shift(imbalanced)"),
            policies=("fifo",),
            seeds=(0,),
        )
        serial = run_scenario_sweep(tiny_config, workers=1, **kwargs)
        parallel = run_scenario_sweep(tiny_config, workers=2, **kwargs)
        assert serial.scenarios == (
            "corrupted(bursty)",
            "label-shift(imbalanced)",
        )
        for key in serial.runs:
            for a, b in zip(serial.runs[key], parallel.runs[key]):
                assert result_fingerprint(a) == result_fingerprint(b)

    def test_format_renders_the_grid(self, tiny_config):
        result = run_scenario_sweep(
            tiny_config, scenarios=("temporal",), policies=("fifo",), seeds=(0,)
        )
        text = format_scenario_sweep(result)
        assert "scenario" in text
        assert "temporal" in text
        assert "fifo" in text
        assert "robustness gap" in text

    @pytest.mark.parametrize("workers, footers", [(1, 0), (2, 1)])
    def test_timings_footer_only_when_parallel(self, tiny_config, workers, footers):
        result = run_scenario_sweep(
            tiny_config,
            scenarios=("temporal",),
            policies=("fifo",),
            seeds=(0, 1),
            workers=workers,
        )
        lines = format_scenario_sweep(result).splitlines()
        assert sum(line.startswith("timings:") for line in lines) == footers
