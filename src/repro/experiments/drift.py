"""Environment-drift experiment (DESIGN.md ablation F).

Streams a class-incremental drift (phases unlock new classes) and
compares how well each policy's encoder serves the *newly introduced*
classes — the paper's "adapt to new environments" story quantified.
Each policy runs as a :class:`~repro.session.Session` over the
``drift(num_phases=...)`` scenario, so the run honours the config as
every other experiment does (``config.augment``, for one).

Metric: after the full stream, a 100%-label probe is trained and
per-class accuracy is split into "old" classes (present from phase 1)
and "new" classes (introduced in the final phase).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.drift import growing_phases
from repro.experiments.config import StreamExperimentConfig, default_config
from repro.registry import canonical_policy_names
from repro.session import Session
from repro.metrics.accuracy import per_class_accuracy
from repro.train.classifier import LinearProbe
from repro.utils.tables import format_table

__all__ = ["DriftResult", "run_drift_experiment", "format_drift"]


@dataclass
class DriftResult:
    """Old-class vs new-class accuracy per policy after a drift stream."""

    config: StreamExperimentConfig
    num_phases: int
    new_classes: Sequence[int]
    overall: Dict[str, float] = field(default_factory=dict)
    old_class_acc: Dict[str, float] = field(default_factory=dict)
    new_class_acc: Dict[str, float] = field(default_factory=dict)


def run_drift_experiment(
    config: Optional[StreamExperimentConfig] = None,
    policies: Sequence[str] = ("contrast-scoring", "random-replace", "fifo"),
    num_phases: int = 2,
) -> DriftResult:
    """Run the class-incremental drift comparison."""
    config = config if config is not None else default_config()
    drift_config = config.with_(scenario=f"drift(num_phases={num_phases})")
    result = DriftResult(config=config, num_phases=num_phases, new_classes=[])
    for policy_name in canonical_policy_names(policies):
        session = Session(drift_config, policy_name).with_eval_points(1)
        session.run()
        comp = session.components
        phases = growing_phases(comp.dataset.num_classes, num_phases)
        new_classes = sorted(set(phases[-1]) - set(phases[-2] if num_phases > 1 else []))
        result.new_classes = new_classes

        # probe on the full class population
        rngs = comp.rngs
        train_x, train_y = comp.dataset.make_split(
            config.probe_train_per_class, rngs.get("drift-train-pool")
        )
        test_x, test_y = comp.dataset.make_split(
            config.probe_test_per_class, rngs.get("drift-test-pool")
        )
        probe = LinearProbe(
            comp.encoder,
            comp.dataset.num_classes,
            rngs.get("drift-probe"),
            lr=config.probe_lr,
            epochs=config.probe_epochs,
        )
        probe.fit(probe.extract_features(train_x), train_y)
        predictions = probe.predict(test_x)
        per_class = per_class_accuracy(
            predictions, test_y, comp.dataset.num_classes
        )
        old_classes = [
            c for c in range(comp.dataset.num_classes) if c not in new_classes
        ]
        result.overall[policy_name] = float((predictions == test_y).mean())
        result.old_class_acc[policy_name] = (
            float(np.nanmean(per_class[old_classes])) if old_classes else float("nan")
        )
        result.new_class_acc[policy_name] = float(
            np.nanmean(per_class[new_classes])
        )
    return result


def format_drift(result: DriftResult) -> str:
    header = [
        "method",
        "overall acc",
        "old-class acc",
        f"new-class acc ({len(result.new_classes)} classes)",
    ]
    rows = []
    for policy in result.overall:
        rows.append(
            [
                policy,
                f"{result.overall[policy]:.3f}",
                f"{result.old_class_acc[policy]:.3f}",
                f"{result.new_class_acc[policy]:.3f}",
            ]
        )
    return format_table(header, rows)
