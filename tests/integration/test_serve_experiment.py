"""The `serve` experiment harness: passes, invariants, fingerprints,
the config-carried serve-policy field, and the CLI subcommand."""

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.config import StreamExperimentConfig
from repro.experiments.serve import format_serve, run_serve
from repro.session import config_from_dict, config_to_dict


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


class TestRunServe:
    def test_invariants_and_fingerprint_stability(self, tiny_config):
        result = run_serve(tiny_config, requests=16, devices=3, train_iterations=2)
        assert result.replay_identical
        assert result.warm_identical
        assert result.tcp_identical is None  # inproc run
        assert result.versions == [1, 2]
        assert result.pins == {"device-0": 1}
        assert len(result.cold) == len(result.warm) == len(result.repeat) == 16
        assert all(d.status == "ok" for d in result.cold)
        assert all(d.cache_hit for d in result.repeat)
        # a fresh identical run reproduces the fingerprint bitwise
        again = run_serve(tiny_config, requests=16, devices=3, train_iterations=2)
        assert again.fingerprint() == result.fingerprint()

    def test_mid_stream_version_bump_splits_the_stream(self, tiny_config):
        result = run_serve(tiny_config, requests=16, devices=2, train_iterations=2)
        first, second = result.cold[:8], result.cold[8:]
        assert {d.model_version for d in first} == {1}
        # after the bump: device-0 pinned to v1, device-1 on current v2
        assert {d.model_version for d in second if d.device_id == "device-0"} == {1}
        assert {d.model_version for d in second if d.device_id == "device-1"} == {2}

    def test_mid_stream_version_is_a_further_trained_model(
        self, tiny_config, monkeypatch
    ):
        """v2 continues v1's training run: it is not the warm-up model
        retrained from step 0 (which would equal v1 array for array)."""
        from repro.serve import ModelRegistry

        published = []
        publish = ModelRegistry.publish

        def record(self, model_state, **kwargs):
            published.append({k: np.array(v) for k, v in model_state.items()})
            return publish(self, model_state, **kwargs)

        monkeypatch.setattr(ModelRegistry, "publish", record)
        run_serve(tiny_config, requests=8, devices=2, train_iterations=4)
        v1, v2 = published
        assert v1.keys() == v2.keys()
        assert any(not np.array_equal(v1[key], v2[key]) for key in v1)

    def test_tcp_transport_adds_the_echo_pass(self, tiny_config):
        result = run_serve(
            tiny_config, requests=12, devices=3, train_iterations=2, transport="tcp"
        )
        assert result.tcp_identical is True
        assert result.transport == "tcp"

    def test_policy_falls_back_to_config_serve_field(self, tiny_config):
        result = run_serve(
            tiny_config.with_(serve="shed"), requests=8, train_iterations=2
        )
        assert result.policy == "shed"
        # an explicit argument (alias resolved) wins over the config
        result = run_serve(
            tiny_config.with_(serve="shed"),
            requests=8,
            train_iterations=2,
            policy="fallback",
        )
        assert result.policy == "degrade"

    def test_validation(self, tiny_config):
        with pytest.raises(ValueError, match="requests"):
            run_serve(tiny_config, requests=2)
        with pytest.raises(ValueError, match="devices"):
            run_serve(tiny_config, devices=0)
        with pytest.raises(ValueError, match="transport"):
            run_serve(tiny_config, transport="carrier-pigeon")

    def test_format_serve_renders_table_and_checks(self, tiny_config):
        result = run_serve(tiny_config, requests=8, train_iterations=2)
        text = format_serve(result)
        assert "cold" in text and "warm" in text and "repeat" in text
        assert "replay bitwise-identical: True" in text
        assert "policy=block" in text


class TestConfigServeField:
    def test_serde_roundtrip(self, tiny_config):
        config = tiny_config.with_(serve="degrade")
        assert config_from_dict(config_to_dict(config)).serve == "degrade"

    def test_old_payloads_default_to_none(self, tiny_config):
        payload = config_to_dict(tiny_config)
        payload.pop("serve")
        assert config_from_dict(payload).serve is None


class TestServeCli:
    def test_serve_flags_rejected_for_other_experiments(self, capsys):
        for flags in (["--serve-policy", "shed"], ["--requests", "8"], ["--port", "0"]):
            with pytest.raises(SystemExit):
                main(["stream", *flags])
            assert "only serve does" in capsys.readouterr().err

    def test_unknown_serve_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--serve-policy", "nope"])
        assert "serve policy" in capsys.readouterr().err

    def test_requests_floor_enforced(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "2"])
        assert "--requests" in capsys.readouterr().err

    def test_policy_flag_rejected(self, capsys):
        # --policy is the *selection* policy namespace; serve admission
        # control is selected with --serve-policy instead.
        with pytest.raises(SystemExit):
            main(["serve", "--policy", "fifo"])
        assert "does not take --policy" in capsys.readouterr().err

    def test_list_includes_serve(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out
        assert "serve policies:" in out
        assert "block" in out and "degrade" in out and "shed" in out
