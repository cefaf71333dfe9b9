"""Integration tests for the Session surface: parity with the legacy
runner, JSON serialization, checkpoint/resume determinism, plugin
policies, and the deprecation shims."""

import json
import os

import numpy as np
import pytest

from repro.experiments.config import StreamExperimentConfig
from repro.experiments.runner import run_stream_experiment
from repro.registry import POLICIES, register_policy
from repro.selection import FIFOPolicy
from repro.session import (
    Session,
    StreamRunResult,
    build_components,
    config_from_dict,
    config_to_dict,
)


@pytest.fixture
def tiny_config():
    return StreamExperimentConfig(
        dataset="cifar10",
        image_size=8,
        stc=8,
        total_samples=96,
        buffer_size=8,
        encoder_widths=(8, 16),
        encoder_blocks=1,
        projection_dim=8,
        probe_train_per_class=4,
        probe_test_per_class=2,
        probe_epochs=3,
        seed=0,
    )


class TestSessionParity:
    def test_session_reproduces_run_stream_experiment(self, tiny_config):
        """Acceptance: Session.run() == run_stream_experiment, exactly."""
        legacy = run_stream_experiment(tiny_config, "contrast-scoring", eval_points=2)
        session = (
            Session.from_config(tiny_config)
            .with_policy("contrast-scoring")
            .with_eval_points(2)
            .run()
        )
        assert session.final_accuracy == legacy.final_accuracy
        assert session.curve.seen_inputs == legacy.curve.seen_inputs
        assert session.curve.accuracies == legacy.curve.accuracies
        assert session.final_loss == legacy.final_loss
        assert session.buffer_class_diversity == legacy.buffer_class_diversity

    def test_parity_for_stochastic_policy(self, tiny_config):
        legacy = run_stream_experiment(tiny_config, "random-replace", eval_points=1)
        via_session = Session(tiny_config, "random-replace").with_eval_points(1).run()
        assert via_session.final_accuracy == legacy.final_accuracy
        assert via_session.final_loss == legacy.final_loss

    def test_from_config_overrides(self, tiny_config):
        session = Session.from_config(tiny_config, seed=3, stc=4)
        assert session.config.seed == 3
        assert session.config.stc == 4
        # original untouched (frozen dataclass copies)
        assert tiny_config.seed == 0

    def test_alias_policy_canonicalized_in_result(self, tiny_config):
        result = Session(tiny_config, "cs").with_eval_points(1).run()
        assert result.policy == "contrast-scoring"
        assert result.curve.method == "contrast-scoring"

    def test_callbacks_fire(self, tiny_config):
        steps, probes, finishes = [], [], []
        result = (
            Session(tiny_config, "fifo")
            .with_eval_points(2)
            .on_step(lambda learner, stats: steps.append(stats.iteration))
            .on_probe(lambda learner, seen, acc: probes.append((seen, acc)))
            .on_finish(finishes.append)
            .run()
        )
        assert len(steps) == tiny_config.iterations
        assert probes[-1][0] == tiny_config.total_samples
        assert [p[1] for p in probes] == result.curve.accuracies
        assert finishes == [result]


class TestResultSerialization:
    def test_to_dict_json_roundtrip(self, tiny_config):
        result = Session(tiny_config, "fifo").with_eval_points(1).run()
        payload = json.dumps(result.to_dict())
        restored = StreamRunResult.from_dict(json.loads(payload))
        assert restored.policy == result.policy
        assert restored.config == result.config
        assert restored.final_accuracy == result.final_accuracy
        assert restored.curve.seen_inputs == result.curve.seen_inputs
        assert restored.curve.accuracies == result.curve.accuracies
        assert restored.rescoring_fraction == result.rescoring_fraction

    def test_nan_fields_serialize_to_strict_json(self, tiny_config):
        """A run stopped before any probe has NaN accuracy/loss; the dict
        must still be strict JSON (null, not the NaN literal)."""
        session = Session(tiny_config, "fifo").with_eval_points(1)
        result = session.run(stop_after=0)
        payload = json.dumps(result.to_dict(), allow_nan=False)  # must not raise
        restored = StreamRunResult.from_dict(json.loads(payload))
        assert np.isnan(restored.final_accuracy)
        assert np.isnan(restored.final_loss)

    def test_config_dict_roundtrip(self, tiny_config):
        assert config_from_dict(config_to_dict(tiny_config)) == tiny_config
        assert json.loads(json.dumps(config_to_dict(tiny_config)))


class TestCheckpointResume:
    @pytest.mark.parametrize("policy", ["contrast-scoring", "random-replace"])
    def test_resume_is_bitwise_identical(self, tiny_config, tmp_path, policy):
        """Checkpoint → resume reproduces the uninterrupted run's
        StepStats bit for bit (timing fields excluded)."""
        full_stats = []
        full = (
            Session(tiny_config, policy)
            .with_eval_points(3)
            .on_step(lambda learner, stats: full_stats.append(stats))
            .run()
        )

        split = 5
        part = Session(tiny_config, policy).with_eval_points(3)
        part.run(stop_after=split)
        path = str(tmp_path / "ckpt.npz")
        part.save_checkpoint(path)

        resumed_stats = []
        resumed_session = Session.resume(path).on_step(
            lambda learner, stats: resumed_stats.append(stats)
        )
        resumed = resumed_session.run()

        assert len(resumed_stats) == len(full_stats) - split
        for a, b in zip(full_stats[split:], resumed_stats):
            assert a.iteration == b.iteration
            assert a.seen_inputs == b.seen_inputs
            assert a.loss == b.loss  # bitwise: same float
            assert a.buffer_size == b.buffer_size
            assert a.num_scored == b.num_scored
            assert a.info == b.info
        assert resumed.final_accuracy == full.final_accuracy
        assert resumed.curve.seen_inputs == full.curve.seen_inputs
        assert resumed.curve.accuracies == full.curve.accuracies
        assert resumed.rescoring_fraction == full.rescoring_fraction
        assert resumed.buffer_class_diversity == full.buffer_class_diversity

    def test_resume_with_lazy_scoring(self, tiny_config, tmp_path):
        full = (
            Session(tiny_config, "contrast-scoring")
            .with_eval_points(1)
            .with_lazy_interval(4)
            .run()
        )
        part = Session(tiny_config, "contrast-scoring").with_eval_points(1)
        part.with_lazy_interval(4).run(stop_after=4)
        path = str(tmp_path / "lazy.npz")
        part.save_checkpoint(path)
        resumed = Session.resume(path).run()
        assert resumed.final_accuracy == full.final_accuracy
        assert resumed.rescoring_fraction == full.rescoring_fraction

    def test_in_memory_state_dict_resume_is_bitwise(self, tiny_config):
        """state_dict/from_state_dict continue a run without touching
        disk, bitwise-identically (the fleet engine's device path)."""
        from repro.experiments.parallel import result_fingerprint

        full = Session(tiny_config, "contrast-scoring").with_eval_points(3).run()
        part = Session(tiny_config, "contrast-scoring").with_eval_points(3)
        part.run(stop_after=4)
        state = part.state_dict()
        resumed = Session.from_state_dict(state).run()
        assert result_fingerprint(resumed) == result_fingerprint(full)

    def test_state_dict_before_run_raises(self, tiny_config):
        with pytest.raises(RuntimeError, match="nothing to checkpoint"):
            Session(tiny_config, "fifo").state_dict()

    def test_from_state_dict_rejects_bad_version(self, tiny_config):
        session = Session(tiny_config, "fifo").with_eval_points(1)
        session.run(stop_after=1)
        state = session.state_dict()
        state["meta"]["version"] = 99
        with pytest.raises(ValueError, match="version"):
            Session.from_state_dict(state)

    def test_wall_seconds_accumulates_across_resume(self, tiny_config, tmp_path):
        part = Session(tiny_config, "fifo").with_eval_points(1)
        partial = part.run(stop_after=4)
        path = str(tmp_path / "wall.npz")
        part.save_checkpoint(path)
        with np.load(path, allow_pickle=False) as archive:
            saved_wall = json.loads(str(archive["meta"]))["wall_accum"]
        assert saved_wall >= partial.wall_seconds > 0.0
        resumed = Session.resume(path).run()
        # full-run wall time includes the pre-checkpoint portion
        assert resumed.wall_seconds > saved_wall

    def test_rerun_on_same_session_does_not_accumulate_wall_time(self, tiny_config):
        session = Session(tiny_config, "fifo").with_eval_points(1)
        first = session.run()
        # a second, empty run must not inherit the first run's wall time
        second = session.run(stop_after=0)
        assert second.wall_seconds < first.wall_seconds

    def test_periodic_checkpointing_writes_file(self, tiny_config, tmp_path):
        path = str(tmp_path / "auto.npz")
        session = (
            Session(tiny_config, "fifo")
            .with_eval_points(1)
            .with_checkpointing(path, every=4)
        )
        session.run()
        assert os.path.exists(path)
        # the checkpoint is loadable and carries the learner state
        resumed = Session.resume(path)
        assert resumed.config == tiny_config

    def test_checkpoint_path_without_suffix_is_normalized(self, tiny_config, tmp_path):
        """np.savez appends .npz silently; the returned path must be the
        file actually written, so resume works on it."""
        part = Session(tiny_config, "fifo").with_eval_points(1)
        part.run(stop_after=2)
        written = part.save_checkpoint(str(tmp_path / "ckpt"))
        assert written.endswith(".npz")
        assert os.path.exists(written)
        assert Session.resume(written).config == tiny_config

    def test_resume_restores_periodic_checkpointing(self, tiny_config, tmp_path):
        """A resumed run keeps writing periodic checkpoints (crash safety)."""
        path = str(tmp_path / "periodic.npz")
        first = (
            Session(tiny_config, "fifo")
            .with_eval_points(1)
            .with_checkpointing(path, every=2)
        )
        first.run(stop_after=2)  # writes the iteration-2 checkpoint
        resumed = Session.resume(path)
        assert resumed._checkpoint_every == 2
        mtime = os.path.getmtime(path)
        resumed.run(stop_after=2)  # must overwrite the checkpoint again
        assert os.path.getmtime(path) >= mtime
        assert int(np.load(path)["learner/iteration"]) == 4

    def test_resume_of_injected_components_requires_reinjection(
        self, tiny_config, tmp_path
    ):
        """Injected components can't be rebuilt from config; resuming
        without re-injecting them must fail loudly, not diverge silently."""
        comp = build_components(tiny_config)
        part = Session(tiny_config, "fifo").with_components(comp).with_eval_points(1)
        part.run(stop_after=2)
        path = str(tmp_path / "injected.npz")
        part.save_checkpoint(path)
        with pytest.raises(RuntimeError, match="injected components"):
            Session.resume(path).run()
        # re-injecting equivalent components lets the run continue
        resumed = Session.resume(path).with_components(build_components(tiny_config))
        full = Session(tiny_config, "fifo").with_eval_points(1).run()
        assert resumed.run().final_accuracy == full.final_accuracy

    def test_resume_rejects_other_versions(self, tiny_config, tmp_path):
        part = Session(tiny_config, "fifo").with_eval_points(1)
        part.run(stop_after=2)
        path = str(tmp_path / "bad.npz")
        part.save_checkpoint(path)
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            arrays = {k: archive[k] for k in archive.files if k != "meta"}
        meta["version"] = 999
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(ValueError, match="checkpoint version"):
            Session.resume(path)

    def test_resume_rejects_unknown_learner_entry(self, tiny_config, tmp_path):
        """A checkpoint entry the learner does not own fails loudly,
        naming the key, instead of being ignored."""
        part = Session(tiny_config, "fifo").with_eval_points(1)
        part.run(stop_after=2)
        path = part.save_checkpoint(str(tmp_path / "extra.npz"))
        with np.load(path, allow_pickle=False) as archive:
            entries = {key: archive[key] for key in archive.files}
        entries["learner/bogus/extra"] = np.zeros(3, dtype=np.float32)
        np.savez(path, **entries)
        with pytest.raises(KeyError, match="bogus/extra"):
            Session.resume(path).run()

    def test_in_memory_state_rejects_unknown_optimizer_key(self, tiny_config):
        part = Session(tiny_config, "fifo").with_eval_points(1)
        part.run(stop_after=2)
        state = part.state_dict()
        state["learner"]["optimizer/m99"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(KeyError, match="optimizer/m99"):
            Session.from_state_dict(state).run()

    def test_stop_after_zero_runs_no_steps(self, tiny_config):
        steps = []
        session = (
            Session(tiny_config, "fifo")
            .with_eval_points(1)
            .on_step(lambda learner, stats: steps.append(stats))
        )
        session.run(stop_after=0)
        assert steps == []
        assert session.learner.iteration == 0

    def test_negative_stop_after_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="stop_after"):
            Session(tiny_config, "fifo").run(stop_after=-1)

    def test_rejected_stop_after_keeps_pending_resume(self, tiny_config, tmp_path):
        """A rejected ``stop_after`` is checked before anything is built,
        so the pending resume (and initial learner) survive it."""
        from repro.experiments.parallel import result_fingerprint

        full_steps, steps = [], []
        full = (
            Session(tiny_config, "fifo")
            .with_eval_points(1)
            .on_step(lambda learner, stats: full_steps.append(stats.iteration))
            .run()
        )
        part = Session(tiny_config, "fifo").with_eval_points(1)
        part.run(stop_after=2)
        resumed = Session.resume(part.save_checkpoint(str(tmp_path / "ckpt")))
        with pytest.raises(ValueError, match="stop_after"):
            resumed.run(stop_after=-1)
        result = resumed.on_step(lambda learner, stats: steps.append(stats.iteration)).run()
        assert steps == full_steps[2:]
        assert result_fingerprint(result) == result_fingerprint(full)

        given = part.state_dict()["learner"]
        fresh = Session(tiny_config, "fifo").with_eval_points(1).with_initial_learner(given)
        with pytest.raises(ValueError, match="stop_after"):
            fresh.run(stop_after=-1)
        fresh.run(stop_after=0)
        adopted = fresh.learner.state_dict()
        assert all(adopted[key].tobytes() == value.tobytes() for key, value in given.items())

    def test_checkpoint_before_run_rejected(self, tiny_config, tmp_path):
        session = Session(tiny_config, "fifo")
        with pytest.raises(RuntimeError, match="run\\(\\) has not started"):
            session.save_checkpoint(str(tmp_path / "nothing.npz"))


class TestPluginPolicy:
    def test_plugin_policy_runs_through_session(self, tiny_config):
        """Acceptance: a @register_policy plugin is constructible through
        Session with zero edits to repro internals."""

        @register_policy("keep-newest-test")
        class KeepNewest(FIFOPolicy):
            name = "keep-newest-test"

        try:
            result = (
                Session.from_config(tiny_config)
                .with_policy("keep-newest-test")
                .with_eval_points(1)
                .run()
            )
            assert result.policy == "keep-newest-test"
            assert len(result.curve) >= 1
            # behaves exactly like its FIFO parent under the same seed
            fifo = Session(tiny_config, "fifo").with_eval_points(1).run()
            assert result.final_accuracy == fifo.final_accuracy
        finally:
            POLICIES.unregister("keep-newest-test")

    def test_plugin_policy_runs_through_cli(self, tiny_config, capsys, monkeypatch):
        import repro.cli as cli_mod

        @register_policy("cli-plugin-test")
        class CliPlugin(FIFOPolicy):
            name = "cli-plugin-test"

        try:
            monkeypatch.setattr(cli_mod, "default_config", lambda *a, **k: tiny_config)
            monkeypatch.setattr(cli_mod, "scaled_config", lambda cfg: cfg)
            code = cli_mod.main(["stream", "--policy", "cli-plugin-test"])
            out = capsys.readouterr().out
            assert code == 0
            assert "policy=cli-plugin-test" in out
        finally:
            POLICIES.unregister("cli-plugin-test")

    def test_non_policy_factory_rejected(self, tiny_config):
        @register_policy("not-a-policy-test")
        def bad_factory(capacity):
            return capacity  # not a ReplacementPolicy

        try:
            with pytest.raises(TypeError, match="expected a ReplacementPolicy"):
                Session(tiny_config, "not-a-policy-test").run()
        finally:
            POLICIES.unregister("not-a-policy-test")

