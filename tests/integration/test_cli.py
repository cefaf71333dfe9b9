"""Tests for the CLI entry point."""

import inspect
import os

import pytest

from repro.cli import EXPERIMENTS, main


class TestCliRegistry:
    def test_all_design_md_experiments_present(self):
        expected = {
            "fig3",
            "fig4a",
            "fig4b",
            "fig5a",
            "fig5b",
            "fig6a",
            "fig6b",
            "table1",
            "table2",
            "ablation-grad",
            "ablation-views",
            "ablation-stc",
            "ablation-momentum",
            "ablation-drift",
            "stream",
            "multi-seed",
            "scenario-sweep",
            "fleet",
            "serve",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_help_lists_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "table1" in out

    def test_list_flag_enumerates_registries(self, capsys):
        code = main(["--list"])
        out = capsys.readouterr().out
        assert code == 0
        # experiment ids
        assert "fig3" in out and "stream" in out
        # registered policies with labels and aliases
        assert "contrast-scoring" in out and "Contrast Scoring" in out
        assert "aliases:" in out
        # datasets / encoders / augments sections
        assert "cifar10" in out
        assert "resnet-micro" in out
        assert "simclr" in out

    def test_experiment_required_without_list(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_policy_rejected_with_suggestion(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--policy", "contrast-scorin"])
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "contrast-scoring" in err

    def test_policy_not_supported_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--policy", "fifo"])
        captured = capsys.readouterr()
        assert "does not take --policy" in captured.err
        # rejected before any run output: no started-run header on stdout
        assert "== table1" not in captured.out

    def test_runs_tiny_experiment(self, capsys, monkeypatch):
        """Exercise the dispatch path end-to-end at minimum scale."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        # shrink further by monkeypatching the default config used by CLI
        import repro.cli as cli_mod
        from repro.experiments.config import StreamExperimentConfig

        tiny = StreamExperimentConfig(
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
        )
        monkeypatch.setattr(
            cli_mod, "default_config", lambda *a, **k: tiny
        )
        monkeypatch.setattr(cli_mod, "scaled_config", lambda cfg: cfg)
        code = main(["ablation-stc", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ablation-stc" in out
        assert "STC" in out

    def test_stream_experiment_honors_policy_alias(self, capsys, monkeypatch):
        """`stream --policy` runs one Session with the resolved policy."""
        import repro.cli as cli_mod
        from repro.experiments.config import StreamExperimentConfig

        tiny = StreamExperimentConfig(
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
        )
        monkeypatch.setattr(cli_mod, "default_config", lambda *a, **k: tiny)
        monkeypatch.setattr(cli_mod, "scaled_config", lambda cfg: cfg)
        # "random" is an alias of random-replace; it must resolve.
        code = main(["stream", "--policy", "random"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy=random-replace" in out
        assert "seen inputs" in out


def _tiny(monkeypatch):
    import repro.cli as cli_mod
    from repro.experiments.config import StreamExperimentConfig

    tiny = StreamExperimentConfig(
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
    )
    monkeypatch.setattr(cli_mod, "default_config", lambda *a, **k: tiny)
    monkeypatch.setattr(cli_mod, "scaled_config", lambda cfg: cfg)


class TestWorkersFlag:
    def test_workers_rejected_for_non_sweep_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--workers", "2"])
        assert "does not take --workers" in capsys.readouterr().err

    def test_workers_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["multi-seed", "--workers", "0"])
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_seeds_rejected_outside_multi_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "--seeds", "0,1"])
        assert "does not take --seeds" in capsys.readouterr().err

    def test_seeds_must_parse(self, capsys):
        with pytest.raises(SystemExit):
            main(["multi-seed", "--seeds", "0,x"])
        assert "comma-separated ints" in capsys.readouterr().err

    def test_multi_seed_runs_with_workers(self, capsys, monkeypatch):
        _tiny(monkeypatch)
        code = main(
            ["multi-seed", "--policy", "fifo", "--seeds", "0,1", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "multi-seed" in out
        assert "fifo" in out
        assert "±" in out


class TestScenarioFlag:
    def test_unknown_scenario_rejected_with_suggestion(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--scenario", "cyclic-drif"])
        captured = capsys.readouterr()
        assert "unknown scenario" in captured.err
        assert "did you mean" in captured.err
        assert "cyclic-drift" in captured.err
        assert "== stream" not in captured.out

    def test_scenario_option_of_the_wrong_kind_is_a_usage_error(self, capsys, monkeypatch):
        _tiny(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", "--scenario", "bursty(burst_prob=abc)"])
        assert exit_info.value.code == 2
        assert "burst_prob must be a number, got 'abc'" in capsys.readouterr().err

    def test_scenario_option_the_run_sets_is_a_usage_error(self, capsys, monkeypatch):
        _tiny(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", "--scenario", "temporal(stc=3)"])
        assert exit_info.value.code == 2
        assert "set by the run, not by the scenario: stc" in capsys.readouterr().err

    def test_scenario_rejected_for_fixed_stream_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--scenario", "bursty"])
        assert "does not take --scenario" in capsys.readouterr().err

    def test_list_shows_scenarios(self, capsys):
        code = main(["--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenarios:" in out
        assert "cyclic-drift" in out and "bursty" in out
        assert "imbalanced" in out and "corrupted" in out
        assert "Recurring environments" in out

    def test_stream_honors_scenario_alias(self, capsys, monkeypatch):
        """`stream --scenario` runs the Session on the resolved scenario."""
        _tiny(monkeypatch)
        code = main(["stream", "--policy", "fifo", "--scenario", "cyclic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario=cyclic-drift" in out

    def test_scenario_sweep_runs_restricted_roster(self, capsys, monkeypatch):
        _tiny(monkeypatch)
        code = main(
            ["scenario-sweep", "--policy", "fifo", "--scenario", "stationary"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "temporal" in out  # alias resolved to the canonical row
        assert "fifo" in out
        assert "robustness gap" in out


class TestScenarioComposition:
    def test_list_splits_bases_from_wrappers(self, capsys):
        code = main(["--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario wrappers (compose over any scenario):" in out
        assert "composition syntax:" in out
        assert 'corrupted(bursty(imbalanced))' in out
        # wrappers listed under the wrapper section, not scenarios:
        bases = out.split("scenario wrappers")[0]
        wrappers = out.split("scenario wrappers")[1]
        assert "label-shift" in wrappers and "adversarial" in wrappers
        assert "label-shift" not in bases.split("policies:")[-1]

    def test_stream_runs_composition_end_to_end(self, capsys, monkeypatch):
        """The flagship composition survives the full CLI path: parse,
        canonicalize, Session run, summary line."""
        _tiny(monkeypatch)
        code = main(
            [
                "stream",
                "--policy",
                "fifo",
                "--scenario",
                "corrupted(bursty(imbalanced))",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario=corrupted(bursty(imbalanced))" in out
        assert "seen inputs" in out

    def test_composition_canonicalized_before_run(self, capsys, monkeypatch):
        """Aliases and spacing normalize to the canonical composition."""
        _tiny(monkeypatch)
        code = main(
            [
                "stream",
                "--policy",
                "fifo",
                "--scenario",
                " noisy( bursty( long-tail ) ) ",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario=corrupted(bursty(imbalanced))" in out

    def test_malformed_composition_rejected_before_run(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--scenario", "corrupted(bursty("])
        captured = capsys.readouterr()
        assert "invalid scenario composition" in captured.err
        assert "== stream" not in captured.out

    def test_bad_wrapper_structure_rejected_with_path(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--scenario", "corrupted(temporal(bursty))"])
        err = capsys.readouterr().err
        assert "is a base scenario, not a wrapper" in err

    def test_scenario_sweep_accepts_composition_rows(self, capsys, monkeypatch):
        _tiny(monkeypatch)
        code = main(
            [
                "scenario-sweep",
                "--policy",
                "fifo",
                "--scenario",
                "corrupted(bursty)",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "corrupted(bursty)" in out
        assert "robustness gap" in out


class TestFleetFlags:
    @pytest.mark.parametrize("flag", ["--aggregator", "--devices", "--rounds"])
    def test_fleet_flags_rejected_outside_fleet(self, capsys, flag):
        value = "fedavg" if flag == "--aggregator" else "2"
        with pytest.raises(SystemExit):
            main(["stream", flag, value])
        assert f"does not take {flag}" in capsys.readouterr().err

    def test_unknown_aggregator_rejected_with_suggestion(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--aggregator", "fedav"])
        captured = capsys.readouterr()
        assert "unknown aggregator" in captured.err
        assert "did you mean" in captured.err

    @pytest.mark.parametrize("flag", ["--devices", "--rounds"])
    def test_fleet_counts_must_be_positive(self, capsys, flag):
        with pytest.raises(SystemExit):
            main(["fleet", flag, "0"])
        assert f"{flag} must be >= 1" in capsys.readouterr().err

    def test_list_shows_aggregators(self, capsys):
        code = main(["--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aggregators:" in out
        assert "fedavg" in out and "fedavg-async" in out
        assert "best-of" in out and "local-only" in out
        assert "Sample-weighted parameter averaging" in out

    def test_fleet_runs_with_alias_and_workers(self, capsys, monkeypatch):
        """`fleet` honors aggregator aliases, --devices/--rounds, and
        fans rounds over --workers."""
        _tiny(monkeypatch)
        code = main(
            [
                "fleet",
                "--devices",
                "2",
                "--rounds",
                "2",
                "--aggregator",
                "avg",
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "aggregator=fedavg devices=2 rounds=2" in out
        assert "fleet-vs-single-device gap" in out
        assert "device0" in out and "device1" in out


class TestBackendFlag:
    @pytest.fixture(autouse=True)
    def _restore_backend(self, monkeypatch):
        """--backend mutates the process default and the env; undo both."""
        from repro.nn.backend import get_backend, set_backend

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        before = get_backend()
        yield
        set_backend(before)

    def test_unknown_backend_rejected_with_suggestion(self, capsys):
        """Mirrors the policy/dataset behavior: registry error with a
        'did you mean' hint, before any run output."""
        with pytest.raises(SystemExit):
            main(["stream", "--backend", "fuzed"])
        captured = capsys.readouterr()
        assert "unknown backend" in captured.err
        assert "did you mean" in captured.err
        assert "fused" in captured.err
        assert "== stream" not in captured.out

    def test_list_shows_backends(self, capsys):
        code = main(["--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backends:" in out
        assert "numpy" in out and "fused" in out
        assert "Fused inference" in out

    def test_backend_alias_selects_and_exports(self, capsys, monkeypatch):
        import os

        from repro.nn.backend import get_backend

        _tiny(monkeypatch)
        code = main(["stream", "--backend", "fast"])  # alias of fused
        assert code == 0
        assert get_backend().name == "fused"
        assert os.environ.get("REPRO_BACKEND") == "fused"
        assert "policy=contrast-scoring" in capsys.readouterr().out


#: A valid command-line value per runner option, and what the runner
#: receives for it (registry names resolve to their canonical name).
OPTION_VALUES = {
    "policy": ("random", "random-replace"),
    "workers": ("2", 2),
    "seeds": ("3,4", (3, 4)),
    "scenario": ("cyclic", "cyclic-drift"),
    "aggregator": ("avg", "fedavg"),
    "devices": ("2", 2),
    "rounds": ("2", 2),
    "participants": ("1", 1),
    "sampler": ("rr", "round-robin"),
    "dropout": ("0.5", 0.5),
    "serve_policy": ("reject", "shed"),
    "requests": ("8", 8),
    "port": ("0", 0),
}


class TestOptionMatrix:
    """Each runner's signature is the one record of the options it
    takes: main accepts an option exactly when the signature has it."""

    @pytest.fixture()
    def stub(self, monkeypatch):
        """Swap an experiment's runner for a stub with its signature, so
        accepted options are checked without running anything."""
        calls = []

        def install(experiment):
            runner = EXPERIMENTS[experiment]

            def fake(seed, **kwargs):
                calls.append(kwargs)
                return "stub ran"

            fake.__signature__ = inspect.signature(runner)
            monkeypatch.setitem(EXPERIMENTS, experiment, fake)
            return inspect.signature(runner).parameters

        monkeypatch.delenv("REPRO_WIRE_FORMAT", raising=False)
        return install, calls

    def test_every_runner_option_is_in_the_table(self):
        from repro.cli import _OPTIONS, _options_of

        assert set(OPTION_VALUES) == set(_OPTIONS)
        for experiment, runner in EXPERIMENTS.items():
            assert set(_options_of(runner)) <= set(_OPTIONS), experiment

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_accepts_exactly_the_signature(self, experiment, stub, capsys):
        install, calls = stub
        params = install(experiment)
        for option, (text, expected) in OPTION_VALUES.items():
            flag = "--" + option.replace("_", "-")
            if option in params:
                calls.clear()
                assert main([experiment, flag, text]) == 0
                assert calls == [{option: expected}], flag
                assert "stub ran" in capsys.readouterr().out
            else:
                with pytest.raises(SystemExit) as excinfo:
                    main([experiment, flag, text])
                assert excinfo.value.code == 2
                err = capsys.readouterr().err
                assert f"experiment {experiment!r} does not take {flag}" in err

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_wire_format_goes_with_workers(self, experiment, stub, capsys):
        install, calls = stub
        params = install(experiment)
        if "workers" in params:
            assert main([experiment, "--wire-format", "b64"]) == 0
            assert calls == [{}]
            assert os.environ["REPRO_WIRE_FORMAT"] == "json-b64"
        else:
            with pytest.raises(SystemExit) as excinfo:
                main([experiment, "--wire-format", "b64"])
            assert excinfo.value.code == 2
            assert "does not take --wire-format" in capsys.readouterr().err

    def test_each_option_is_taken_and_help_names_the_takers(self):
        from repro.cli import _OPTIONS, _options_of, _parser

        helps = {
            action.dest: action.help for action in _parser()._actions
        }
        for option in _OPTIONS:
            takers = [
                name
                for name in sorted(EXPERIMENTS)
                if option in _options_of(EXPERIMENTS[name])
            ]
            assert takers, option
            assert f"[{', '.join(takers)}" in helps[option]

    def test_rejection_names_who_takes_it(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--devices", "2"])
        assert "(only fleet and serve do)" in capsys.readouterr().err

    def test_fleet_sampler_needs_participants(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--sampler", "round-robin"])
        assert excinfo.value.code == 2
        assert "needs participants" in capsys.readouterr().err
