"""Command-line entry point: ``python -m repro.cli <experiment>``.

Runs any of the paper's experiments at the current ``REPRO_BENCH_SCALE``
and prints the corresponding table.  Experiment ids mirror the
per-experiment index in DESIGN.md:

    fig3            label-ratio comparison (+ supervised reference)
    fig4a .. fig6b  learning curves per dataset
    table1            lazy scoring sweep
    table2            buffer size sweep
    ablation-grad     score-vs-gradient relation
    ablation-views    deterministic vs randomized scoring views
    ablation-stc      temporal-correlation sweep
    ablation-momentum explicit EMA scores vs lazy scoring
    ablation-drift    class-incremental drift comparison
    stream            one Session run of a single policy
    multi-seed        many-seed sweep, mean ± std per policy
    scenario-sweep    (scenario × policy) policy-robustness grid
    fleet             multi-device rounds + aggregation (docs/FLEET.md)
    serve             micro-batching scoring service (docs/SERVE.md)

Each runner's keyword parameters are the options its experiment takes,
and that signature is the only record of who takes what: ``main``
rejects a given option the runner lacks ("does not take --flag (only a
and b do)"), checks the value against the option table (a registry
name resolves to its canonical name, a count must be in range,
``--seeds`` parses), and passes it by keyword; ``--help`` lists the
experiments that take each option.  ``--wire-format NAME`` goes with
``--workers``: it is exported as ``REPRO_WIRE_FORMAT`` so worker
processes and the fleet coordinator resolve the same codec.

Five options apply to every experiment.  ``--seed`` sets the experiment
seed.  ``--backend NAME`` selects the array-execution backend
(:mod:`repro.nn.backend`) for the whole invocation and exports
``REPRO_BACKEND`` so spawned workers inherit it.  ``--metrics`` turns
on the :mod:`repro.obs` hot-path metrics (exported as
``REPRO_METRICS`` so pool workers record and ship theirs home) and
prints :func:`repro.obs.exporters.render_console` after the run.
``--trace-out PATH`` records a span trace and writes it as Chrome
trace-event JSON (``.json``; load at ``chrome://tracing``) or
JSON-lines (any other suffix).  ``--list`` prints the experiment ids
and the entries of every registry in :mod:`repro.registry` (plugins
included).

Results are bitwise-identical for any ``--workers``, any wire format,
and with observability on or off (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.experiments import (
    default_config,
    format_fig3,
    format_gradient_ablation,
    format_learning_curves,
    format_momentum_ablation,
    format_multi_seed,
    format_scoring_view_ablation,
    format_stc_sweep,
    format_table1,
    format_table2,
    run_fig3,
    run_gradient_ablation,
    run_learning_curves,
    run_momentum_ablation,
    run_multi_seed,
    run_scoring_view_ablation,
    run_stc_sweep,
    run_table1,
    run_table2,
    scaled_config,
)
from repro.experiments.fleet import format_fleet, run_fleet
from repro.experiments.serve import format_serve, run_serve
from repro.experiments.scenario_sweep import (
    format_scenario_sweep,
    run_scenario_sweep,
)
from repro.experiments.runner import POLICY_NAMES
from repro.data.scenarios import canonical_scenario
from repro.nn.backend import set_backend
from repro.obs import METRICS_ENV, metrics, set_metrics_enabled
from repro.obs.exporters import render_console
from repro.obs.trace import TRACE_ENV, SpanTracer, set_tracer
from repro.registry import (
    AGGREGATORS,
    AUGMENTS,
    BACKENDS,
    CLIENT_SAMPLERS,
    DATASETS,
    ENCODERS,
    POLICIES,
    SCENARIOS,
    SERVE_POLICIES,
    WIRE_FORMATS,
)
from repro.session import Session
from repro.utils.tables import format_table

__all__ = ["main", "EXPERIMENTS"]

_CURVE_DATASETS = {
    "fig4a": "cifar10",
    "fig4b": "imagenet100",
    "fig5a": "imagenet20",
    "fig5b": "imagenet50",
    "fig6a": "svhn",
    "fig6b": "cifar100",
}


def _run_fig3(seed: int, policy: Optional[str] = None) -> str:
    config = scaled_config(default_config(seed=seed))
    policies = POLICY_NAMES if policy is None else (policy,)
    return format_fig3(run_fig3(config, policies=policies))


def _curve_runner(dataset: str) -> Callable[..., str]:
    def run(seed: int, policy: Optional[str] = None, workers: int = 1) -> str:
        config = scaled_config(default_config(dataset, seed=seed))
        kwargs = {} if policy is None else {"policies": (policy,)}
        return format_learning_curves(
            run_learning_curves(dataset, config, workers=workers, **kwargs)
        )

    return run


def _run_table1(seed: int) -> str:
    config = scaled_config(default_config(seed=seed))
    return format_table1(run_table1(config))


def _run_table2(seed: int, policy: Optional[str] = None, workers: int = 1) -> str:
    config = scaled_config(default_config(seed=seed))
    kwargs = {} if policy is None else {"policies": (policy,)}
    return format_table2(run_table2(config, workers=workers, **kwargs))


def _run_ablation_grad(seed: int) -> str:
    config = scaled_config(default_config(seed=seed))
    return format_gradient_ablation(run_gradient_ablation(config))


def _run_ablation_views(seed: int) -> str:
    config = scaled_config(default_config(seed=seed))
    return format_scoring_view_ablation(run_scoring_view_ablation(config))


def _run_ablation_stc(seed: int, workers: int = 1) -> str:
    config = scaled_config(default_config(seed=seed))
    return format_stc_sweep(run_stc_sweep(config, workers=workers))


def _run_ablation_momentum(seed: int) -> str:
    config = scaled_config(default_config(seed=seed))
    return format_momentum_ablation(run_momentum_ablation(config))


def _run_ablation_drift(seed: int, policy: Optional[str] = None) -> str:
    from repro.experiments.drift import format_drift, run_drift_experiment

    config = scaled_config(default_config(seed=seed))
    kwargs = {} if policy is None else {"policies": (policy,)}
    return format_drift(run_drift_experiment(config, **kwargs))


def _run_stream(
    seed: int, policy: str = "contrast-scoring", scenario: Optional[str] = None
) -> str:
    """One Session run of a single policy; prints the learning curve."""
    config = scaled_config(default_config(seed=seed))
    session = Session.from_config(config, policy=policy).with_eval_points(4)
    if scenario is not None:
        session.with_scenario(scenario)
    result = session.run()
    header = ["seen inputs", "probe accuracy"]
    rows = [[str(s), f"{a:.3f}"] for s, a in result.curve.as_rows()]
    summary = (
        f"policy={result.policy} scenario={result.config.scenario} "
        f"final={result.final_accuracy:.3f} "
        f"loss={result.final_loss:.3f} "
        f"rel-batch-time={result.relative_batch_time:.3f}"
    )
    return "\n".join([format_table(header, rows), summary])


def _run_scenario_sweep(
    seed: int,
    policy: Optional[str] = None,
    workers: int = 1,
    scenario: Optional[str] = None,
) -> str:
    """(scenario × policy) robustness grid: kNN accuracy + diversity."""
    config = scaled_config(default_config(seed=seed))
    kwargs = {}
    if policy is not None:
        kwargs["policies"] = (policy,)
    if scenario is not None:
        kwargs["scenarios"] = (scenario,)
    return format_scenario_sweep(
        run_scenario_sweep(config, seeds=(seed,), workers=workers, **kwargs)
    )


def _run_fleet(
    seed: int,
    policy: Optional[str] = None,
    workers: int = 1,
    scenario: Optional[str] = None,
    aggregator: str = "fedavg",
    devices: int = 3,
    rounds: int = 2,
    participants: Optional[int] = None,
    sampler: Optional[str] = None,
    dropout: Optional[float] = None,
) -> str:
    """Multi-device fleet rounds + aggregation vs. one plain device."""
    config = scaled_config(default_config(seed=seed))
    fault_plan = None
    if dropout is not None and dropout > 0.0:
        from repro.fleet.faults import DeviceFaults, FaultPlan

        fault_plan = FaultPlan(
            seed=seed, default=DeviceFaults(dropout_prob=dropout)
        )
    result = run_fleet(
        config,
        devices=devices,
        rounds=rounds,
        aggregator=aggregator,
        policy=policy,
        scenario=scenario,
        workers=workers,
        participants=participants,
        sampler=sampler,
        fault_plan=fault_plan,
    )
    return format_fleet(result)


def _run_serve_cli(
    seed: int,
    devices: int = 3,
    serve_policy: Optional[str] = None,
    requests: int = 64,
    port: Optional[int] = None,
) -> str:
    """Micro-batching scoring service: cold/warm/repeat passes, a
    mid-stream model-version bump, and the determinism replay."""
    config = scaled_config(default_config(seed=seed))
    result = run_serve(
        config,
        requests=requests,
        devices=devices,
        policy=serve_policy,
        port=port,
    )
    return format_serve(result)


def _run_multi_seed_cli(
    seed: int,
    policy: Optional[str] = None,
    workers: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> str:
    """Many-seed sweep: mean ± std per policy (the paper's protocol).

    Default roster is three consecutive seeds starting at ``--seed``
    (the paper averages over three runs); ``--seeds`` overrides it.
    """
    config = scaled_config(default_config(seed=seed))
    seeds = tuple(seeds) if seeds else (seed, seed + 1, seed + 2)
    kwargs = {} if policy is None else {"policies": (policy,)}
    return format_multi_seed(
        run_multi_seed(config, seeds=seeds, workers=workers, **kwargs)
    )


EXPERIMENTS: Dict[str, Callable[..., str]] = {
    "fig3": _run_fig3,
    **{name: _curve_runner(ds) for name, ds in _CURVE_DATASETS.items()},
    "table1": _run_table1,
    "table2": _run_table2,
    "ablation-grad": _run_ablation_grad,
    "ablation-views": _run_ablation_views,
    "ablation-stc": _run_ablation_stc,
    "ablation-momentum": _run_ablation_momentum,
    "ablation-drift": _run_ablation_drift,
    "stream": _run_stream,
    "multi-seed": _run_multi_seed_cli,
    "scenario-sweep": _run_scenario_sweep,
    "fleet": _run_fleet,
    "serve": _run_serve_cli,
}


# ----------------------------------------------------------------------
# Runner options.  A runner's keyword parameters are the options it
# takes; this table says how each one parses and is checked.  A check
# gets the flag and the parsed value and returns the value to pass, or
# raises KeyError/ValueError with the message to print.
# ----------------------------------------------------------------------
class _Option(NamedTuple):
    type: Callable[[str], Any]
    help: str
    check: Callable[[str, Any], Any]


def _registered(registry) -> Callable[[str, Any], Any]:
    """Resolve a registry name or alias to its canonical name."""
    return lambda flag, value: registry.get(value).name


def _at_least(low: int) -> Callable[[str, Any], Any]:
    def check(flag: str, value: Any) -> Any:
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
        return value

    return check


def _within(low: float, high: float) -> Callable[[str, Any], Any]:
    def check(flag: str, value: Any) -> Any:
        if not low <= value <= high:
            raise ValueError(f"{flag} must be in [{low}, {high}], got {value}")
        return value

    return check


def _seed_roster(flag: str, text: str) -> Tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated ints, got {text!r}") from None
    if not seeds:
        raise ValueError(f"{flag} must name at least one seed")
    return seeds


_OPTIONS: Dict[str, _Option] = {
    "policy": _Option(
        str,
        "override the policy roster with one registered policy name or alias",
        _registered(POLICIES),
    ),
    "workers": _Option(
        int,
        "worker processes to fan the run out over; results are identical "
        "to the serial run",
        _at_least(1),
    ),
    "seeds": _Option(
        str,
        "comma-separated seed roster (default: seed, seed+1, seed+2)",
        _seed_roster,
    ),
    "scenario": _Option(
        str,
        "stream scenario: a registered name or alias, or a wrapper "
        'composition such as "corrupted(bursty(imbalanced))"',
        # resolves aliases, validates the composition structure eagerly
        lambda flag, value: canonical_scenario(value),
    ),
    "aggregator": _Option(
        str,
        "fleet model-aggregation rule (a registered aggregator)",
        _registered(AGGREGATORS),
    ),
    "devices": _Option(int, "simulated device count", _at_least(1)),
    "rounds": _Option(int, "fleet synchronization rounds", _at_least(1)),
    "participants": _Option(
        int,
        "train only K sampled devices per fleet round (default: every device)",
        _at_least(1),
    ),
    "sampler": _Option(
        str,
        "client-sampling rule; needs --participants (a registered client "
        "sampler; default uniform)",
        _registered(CLIENT_SAMPLERS),
    ),
    "dropout": _Option(
        float,
        "per-device per-round dropout probability of a seeded fault plan",
        _within(0.0, 1.0),
    ),
    "serve_policy": _Option(
        str,
        "admission-control policy of the scoring service (a registered "
        "serve policy; default: config.serve or block)",
        _registered(SERVE_POLICIES),
    ),
    "requests": _Option(int, "request-stream length", _at_least(4)),
    "port": _Option(
        int,
        "TCP loopback port for a JSON-lines echo pass (0 = ephemeral; "
        "omit for purely in-process serving)",
        _within(0, 65535),
    ),
}


def _options_of(runner: Callable[..., str]) -> Dict[str, inspect.Parameter]:
    """A runner's options: its parameters after ``seed``."""
    params = dict(inspect.signature(runner).parameters)
    del params["seed"]
    return params


def _takers(option: str) -> List[str]:
    """The experiments whose runner takes ``option``."""
    return [
        name for name in sorted(EXPERIMENTS) if option in _options_of(EXPERIMENTS[name])
    ]


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _takers_help(option: str) -> str:
    """``[a, b, c; default X]``: who takes ``option``, and its default
    when every taker's signature agrees on one."""
    takers = _takers(option)
    defaults = {_options_of(EXPERIMENTS[name])[option].default for name in takers}
    if len(defaults) == 1 and None not in defaults:
        return f"[{', '.join(takers)}; default {defaults.pop()}]"
    return f"[{', '.join(takers)}]"


def _only(option: str) -> str:
    """``only a, b and c do``: the experiments that take ``option``."""
    takers = _takers(option)
    if len(takers) == 1:
        return f"only {takers[0]} does"
    return f"only {', '.join(takers[:-1])} and {takers[-1]} do"


def _entry_line(entry) -> str:
    parts = [f"{entry.name:<18}"]
    if entry.display_label != entry.name:
        parts.append(entry.display_label)
    if entry.aliases:
        parts.append(f"(aliases: {', '.join(entry.aliases)})")
    return "  " + " ".join(parts).rstrip()


def _format_listing() -> str:
    """The --list report: experiment ids and every registry's contents."""
    lines = ["experiments:"]
    lines += [f"  {name}" for name in sorted(EXPERIMENTS)]
    plurals = {"policy": "policies", "serve policy": "serve policies"}
    for registry in (
        POLICIES,
        DATASETS,
        ENCODERS,
        AUGMENTS,
        BACKENDS,
        SCENARIOS,
        AGGREGATORS,
        CLIENT_SAMPLERS,
        SERVE_POLICIES,
        WIRE_FORMATS,
    ):
        if registry is SCENARIOS:
            # Base streams and composable wrappers are different things:
            # wrappers stack over any scenario via composition syntax.
            wrappers = [
                e for e in registry.entries() if e.metadata.get("kind") == "wrapper"
            ]
            bases = [
                e for e in registry.entries() if e.metadata.get("kind") != "wrapper"
            ]
            lines.append("scenarios:")
            lines += [_entry_line(e) for e in bases]
            lines.append("scenario wrappers (compose over any scenario):")
            lines += [_entry_line(e) for e in wrappers]
            lines.append(
                '  composition syntax: --scenario "corrupted(bursty(imbalanced))"'
            )
            continue
        lines.append(f"{plurals.get(registry.kind, registry.kind + 's')}:")
        lines += [_entry_line(entry) for entry in registry.entries()]
    return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce a table/figure of the Selective Data Contrast paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS),
        help="experiment id (see DESIGN.md per-experiment index)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    for option, spec in _OPTIONS.items():
        parser.add_argument(
            _flag(option),
            type=spec.type,
            default=None,
            help=f"{spec.help} {_takers_help(option)}",
        )
    parser.add_argument(
        "--wire-format",
        default=None,
        help="transport codec that parallel runs ship state with (a "
        "registered wire format; default: REPRO_WIRE_FORMAT env or "
        "delta); results are identical under every format "
        f"[{', '.join(_takers('workers'))}]",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="array-execution backend for the whole invocation "
        "(a registered backend, e.g. numpy or fused; "
        "default: REPRO_BACKEND env or numpy)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="record hot-path metrics (repro.obs) for this invocation "
        "and print their console table after the run; exported via "
        "REPRO_METRICS so pool workers record and ship theirs home",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a span trace of the run: Chrome trace-event JSON "
        "when PATH ends in .json (load at chrome://tracing or "
        "ui.perfetto.dev), JSON-lines otherwise; exported via "
        "REPRO_TRACE so pool workers record spans too",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment ids and every registry's entries, then exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list:
        print(_format_listing())
        return 0
    if args.experiment is None:
        parser.error("an experiment id is required (or use --list)")
    experiment = args.experiment
    runner = EXPERIMENTS[experiment]
    takes = _options_of(runner)

    def reject(flag: str, option: str) -> None:
        parser.error(
            f"experiment {experiment!r} does not take {flag} ({_only(option)})"
        )

    # Check every given option before anything runs or is exported.
    kwargs: Dict[str, Any] = {}
    try:
        for option, spec in _OPTIONS.items():
            value = getattr(args, option)
            if value is None:
                continue
            if option not in takes:
                reject(_flag(option), option)
            kwargs[option] = spec.check(_flag(option), value)
        wire_format = backend = None
        if args.wire_format is not None:
            if "workers" not in takes:
                reject("--wire-format", "workers")
            wire_format = WIRE_FORMATS.get(args.wire_format).name
        if args.backend is not None:
            backend = BACKENDS.get(args.backend).name
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))

    # Each choice is the process default for this invocation, and its
    # env export makes worker processes (and the fleet coordinator's
    # codec lookup) resolve the same one.
    if wire_format is not None:
        os.environ["REPRO_WIRE_FORMAT"] = wire_format
    if backend is not None:
        set_backend(backend)
        os.environ["REPRO_BACKEND"] = backend
    if args.metrics:
        set_metrics_enabled(True)
        os.environ[METRICS_ENV] = "1"
    tracer: Optional[SpanTracer] = None
    if args.trace_out is not None:
        tracer = SpanTracer()
        set_tracer(tracer)
        os.environ[TRACE_ENV] = "1"

    print(f"== {experiment} (seed {args.seed}) ==")
    try:
        print(runner(args.seed, **kwargs))
    except ValueError as exc:
        # Configs validate eagerly, before any work: this is a pairing
        # the per-option checks cannot see, e.g. --sampler without
        # --participants, or more --participants than --devices.
        parser.error(str(exc))
    if args.metrics:
        print()
        print(render_console(metrics()))
    if tracer is not None:
        if args.trace_out.endswith(".json"):
            tracer.to_chrome(args.trace_out)
        else:
            tracer.to_jsonl(args.trace_out)
        print(f"trace: {len(tracer.spans)} spans -> {args.trace_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
