"""Multi-seed experiment aggregation.

The paper reports results "averaged over three runs ... with different
random seeds"; this module runs any policy/config across seeds and
aggregates final accuracies (mean ± std) plus the per-seed win rate of
contrast scoring over a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.config import StreamExperimentConfig, default_config
from repro.experiments.parallel import SweepSpec, format_timings_footer, run_sweep
from repro.experiments.runner import StreamRunResult
from repro.registry import canonical_policy_names
from repro.utils.tables import format_table

__all__ = ["SeedAggregate", "MultiSeedResult", "run_multi_seed", "format_multi_seed"]


@dataclass
class SeedAggregate:
    """Final-accuracy statistics of one policy across seeds."""

    policy: str
    accuracies: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))

    @property
    def count(self) -> int:
        return len(self.accuracies)


@dataclass
class MultiSeedResult:
    """Aggregates for every policy plus the underlying runs."""

    config: StreamExperimentConfig
    seeds: Sequence[int]
    aggregates: Dict[str, SeedAggregate] = field(default_factory=dict)
    runs: Dict[str, List[StreamRunResult]] = field(default_factory=dict)
    # Per-stage execution timing from run_sweep (never part of any
    # fingerprint — timing is nondeterministic by nature).
    timings: Optional[Dict[str, Any]] = None

    def win_rate(self, policy: str, baseline: str) -> float:
        """Fraction of seeds where ``policy`` beats ``baseline``."""
        wins = 0
        pairs = zip(
            self.aggregates[policy].accuracies,
            self.aggregates[baseline].accuracies,
        )
        total = 0
        for a, b in pairs:
            wins += int(a > b)
            total += 1
        if total == 0:
            raise ValueError("no paired runs to compare")
        return wins / total


def run_multi_seed(
    config: Optional[StreamExperimentConfig] = None,
    policies: Sequence[str] = ("contrast-scoring", "random-replace", "fifo"),
    seeds: Sequence[int] = (0, 1, 2),
    eval_points: int = 1,
    workers: int = 1,
) -> MultiSeedResult:
    """Run every (policy, seed) pair and aggregate final accuracies.

    ``workers > 1`` fans the (policy, seed) grid out over worker
    processes via :func:`repro.experiments.parallel.run_sweep`; the
    merged result is identical to the serial one on every deterministic
    field (runs share no state).
    """
    base = config if config is not None else default_config()
    if not seeds:
        raise ValueError("need at least one seed")
    policies = canonical_policy_names(policies)
    result = MultiSeedResult(config=base, seeds=tuple(seeds))
    specs = [
        SweepSpec(
            config=base.with_(seed=seed),
            policy=policy,
            eval_points=eval_points,
            tag=f"{policy}/seed{seed}",
        )
        for policy in policies
        for seed in seeds
    ]
    sweep = run_sweep(specs, workers=workers)
    result.timings = sweep.timings.to_dict()
    sweep_runs = iter(sweep)
    for policy in policies:
        aggregate = SeedAggregate(policy=policy)
        runs: List[StreamRunResult] = [next(sweep_runs) for _ in seeds]
        aggregate.accuracies = [run.final_accuracy for run in runs]
        result.aggregates[policy] = aggregate
        result.runs[policy] = runs
    return result


def format_multi_seed(result: MultiSeedResult) -> str:
    """Render mean ± std per policy (the paper's reporting style)."""
    header = ["method", "accuracy (mean ± std)", "per-seed"]
    rows = []
    for policy, agg in result.aggregates.items():
        per_seed = ", ".join(f"{a:.3f}" for a in agg.accuracies)
        rows.append([policy, f"{agg.mean:.3f} ± {agg.std:.3f}", per_seed])
    table = format_table(header, rows)
    footer = format_timings_footer(result.timings)
    return table if footer is None else "\n".join([table, footer])
