"""Policy-robustness benchmark over the scenario zoo.

Joshi & Mirzasoleiman (2023) show selection-policy behavior is highly
sensitive to the data distribution; this harness quantifies that for
the repo's policies by fanning a (scenario × policy × seed) grid out
through :func:`repro.experiments.parallel.run_sweep` — the scenario
rides each spec's ``config.scenario`` across the process boundary, so
parallel results are bitwise-identical to serial ones on every
deterministic field.

The emitted robustness table has one row per scenario and one column
per policy; each cell reports the final kNN accuracy (the
training-free readout every Session records in
``result.info["final_knn_accuracy"]``) and the mean buffer class
diversity — accuracy shows *how well* the policy served the stream,
diversity shows *what it kept* to get there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.scenarios import canonical_scenario
from repro.experiments.config import StreamExperimentConfig, default_config
from repro.experiments.parallel import SweepSpec, format_timings_footer, run_sweep
from repro.experiments.runner import StreamRunResult
from repro.registry import canonical_policy_names, scenario_names
from repro.utils.tables import format_table

__all__ = [
    "ScenarioSweepResult",
    "run_scenario_sweep",
    "format_scenario_sweep",
]

#: Default policy roster: the paper's headline policy plus the two
#: baselines whose failure modes differ most across stream shapes.
SWEEP_POLICIES = ("contrast-scoring", "random-replace", "fifo")


@dataclass
class ScenarioSweepResult:
    """The (scenario × policy) robustness grid plus the underlying runs.

    ``knn_accuracy`` and ``buffer_diversity`` hold per-cell means over
    the seed roster; ``runs`` keeps every underlying
    :class:`~repro.session.StreamRunResult` for deeper analysis.
    """

    config: StreamExperimentConfig
    scenarios: Tuple[str, ...]
    policies: Tuple[str, ...]
    seeds: Tuple[int, ...]
    knn_accuracy: Dict[Tuple[str, str], float] = field(default_factory=dict)
    buffer_diversity: Dict[Tuple[str, str], float] = field(default_factory=dict)
    runs: Dict[Tuple[str, str], List[StreamRunResult]] = field(default_factory=dict)
    # Per-stage execution timing from run_sweep (never fingerprinted).
    timings: Optional[Dict[str, Any]] = None

    def robustness_gap(self, policy: str) -> float:
        """Max-minus-min kNN accuracy of ``policy`` across scenarios —
        the single-number "how distribution-sensitive is it" score."""
        cells = [self.knn_accuracy[(s, policy)] for s in self.scenarios]
        return float(max(cells) - min(cells))


def run_scenario_sweep(
    config: Optional[StreamExperimentConfig] = None,
    scenarios: Optional[Sequence[str]] = None,
    policies: Sequence[str] = SWEEP_POLICIES,
    seeds: Sequence[int] = (0,),
    eval_points: int = 1,
    workers: int = 1,
) -> ScenarioSweepResult:
    """Run every (scenario, policy, seed) cell and aggregate the grid.

    ``scenarios`` defaults to *every* registered scenario (plugins
    included); names, aliases, and wrapper compositions
    (``"corrupted(bursty(imbalanced))"``) all resolve through
    :func:`~repro.data.scenarios.canonical_scenario`, so a composition
    is one more grid row.  ``workers > 1`` fans the grid out over
    processes; the
    merged result is identical to the serial one on every deterministic
    field.
    """
    base = config if config is not None else default_config()
    if not seeds:
        raise ValueError("need at least one seed")
    roster = scenario_names() if scenarios is None else list(scenarios)
    if not roster:
        raise ValueError("need at least one scenario")
    # canonicalize (aliases collapse, compositions re-render in canonical
    # form), then dedupe — an alias plus its canonical spelling must not
    # double a grid row — keeping first-mention order
    roster = tuple(dict.fromkeys(canonical_scenario(name) for name in roster))
    policies = tuple(dict.fromkeys(canonical_policy_names(policies)))
    if not policies:
        raise ValueError("need at least one policy")
    specs = [
        SweepSpec(
            config=base.with_(scenario=scenario, seed=seed),
            policy=policy,
            eval_points=eval_points,
            tag=f"{scenario}/{policy}/seed{seed}",
        )
        for scenario in roster
        for policy in policies
        for seed in seeds
    ]
    sweep = run_sweep(specs, workers=workers)
    sweep_runs = iter(sweep)
    result = ScenarioSweepResult(
        config=base, scenarios=roster, policies=policies, seeds=tuple(seeds)
    )
    result.timings = sweep.timings.to_dict()
    for scenario in roster:
        for policy in policies:
            runs = [next(sweep_runs) for _ in seeds]
            result.runs[(scenario, policy)] = runs
            result.knn_accuracy[(scenario, policy)] = float(
                np.mean([run.info["final_knn_accuracy"] for run in runs])
            )
            result.buffer_diversity[(scenario, policy)] = float(
                np.mean([run.buffer_class_diversity for run in runs])
            )
    return result


def format_scenario_sweep(result: ScenarioSweepResult) -> str:
    """Render the robustness table: kNN accuracy / buffer diversity."""
    header = ["scenario"] + [f"{p} (acc/div)" for p in result.policies]
    rows = []
    for scenario in result.scenarios:
        row = [scenario]
        for policy in result.policies:
            acc = result.knn_accuracy[(scenario, policy)]
            div = result.buffer_diversity[(scenario, policy)]
            row.append(f"{acc:.3f}/{div:.1f}")
        rows.append(row)
    gap = ", ".join(
        f"{policy}={result.robustness_gap(policy):.3f}"
        for policy in result.policies
    )
    lines = [
        format_table(header, rows),
        f"robustness gap (max-min kNN accuracy across scenarios): {gap}",
    ]
    footer = format_timings_footer(result.timings)
    if footer is not None:
        lines.append(footer)
    return "\n".join(lines)
