"""Ablation harnesses beyond the paper's tables (DESIGN.md exp. A-C).

A. Score-gradient relation (paper §III-C made quantitative): the rank
   correlation between contrast score and NT-Xent gradient magnitude,
   measured on live projections during training.
B. Deterministic vs. randomized scoring views (the paper's "Contrast
   Score Design Principle" paragraph): score stability and downstream
   accuracy when the weak deterministic flip view is replaced by strong
   random augmentation.
C. STC sweep: how the margin between contrast scoring and random
   replacement grows with temporal correlation strength.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gradient_analysis import score_gradient_relation
from repro.core.scoring import ContrastScorer
from repro.data.augment import SimCLRAugment, horizontal_flip
from repro.experiments.config import StreamExperimentConfig, default_config
from repro.experiments.parallel import SweepSpec, run_sweep
from repro.experiments.runner import run_stream_experiment
from repro.registry import canonical_policy_names
from repro.session import Session, build_components
from repro.utils.tables import format_table

__all__ = [
    "GradientAblationResult",
    "run_gradient_ablation",
    "format_gradient_ablation",
    "ScoringViewResult",
    "run_scoring_view_ablation",
    "format_scoring_view_ablation",
    "StcSweepResult",
    "run_stc_sweep",
    "format_stc_sweep",
    "MomentumAblationResult",
    "run_momentum_ablation",
    "format_momentum_ablation",
]


# ----------------------------------------------------------------------
# A. score vs gradient magnitude
# ----------------------------------------------------------------------
@dataclass
class GradientAblationResult:
    """Score/gradient-norm correlation at several training stages."""

    checkpoints: List[int] = field(default_factory=list)
    correlations: List[float] = field(default_factory=list)
    low_score_grad: List[float] = field(default_factory=list)
    high_score_grad: List[float] = field(default_factory=list)


def run_gradient_ablation(
    config: Optional[StreamExperimentConfig] = None,
    probes: int = 4,
    batch: int = 48,
) -> GradientAblationResult:
    """Measure the §III-C relation on live projections along a run.

    A contrast-scoring :class:`~repro.session.Session` on ``config``
    trains; the relation is measured before the first step and then
    every ``iterations // probes`` steps, for ``probes`` phases (fewer
    if the configured stream ends first).
    """
    config = config if config is not None else default_config()
    comp = build_components(config)
    result = GradientAblationResult()
    rng = comp.rngs.get("gradient-ablation")
    iters_per_phase = max(1, config.iterations // probes)

    def measure(iteration: int) -> None:
        labels = rng.integers(0, comp.dataset.num_classes, size=batch)
        images = comp.dataset.sample(labels, rng)
        z1 = comp.scorer.project(images)
        z2 = comp.scorer.project(horizontal_flip(images))
        relation = score_gradient_relation(z1, z2, config.temperature)
        order = np.argsort(relation.scores)
        k = max(1, batch // 4)
        result.checkpoints.append(iteration)
        result.correlations.append(relation.spearman_correlation())
        result.low_score_grad.append(float(relation.grad_norms[order[:k]].mean()))
        result.high_score_grad.append(float(relation.grad_norms[order[-k:]].mean()))

    def on_step(learner, stats) -> None:
        if learner.iteration % iters_per_phase == 0:
            measure(learner.iteration)

    measure(0)
    (
        Session(config, "contrast-scoring")
        .with_components(comp)
        .with_eval_points(1)
        .on_step(on_step)
        .run(stop_after=probes * iters_per_phase)
    )
    return result


def format_gradient_ablation(result: GradientAblationResult) -> str:
    header = [
        "iteration",
        "spearman(score, |grad|)",
        "mean |grad| low-score quartile",
        "mean |grad| high-score quartile",
    ]
    rows = [
        [str(it), f"{c:.3f}", f"{lo:.4f}", f"{hi:.4f}"]
        for it, c, lo, hi in zip(
            result.checkpoints,
            result.correlations,
            result.low_score_grad,
            result.high_score_grad,
        )
    ]
    return format_table(header, rows)


# ----------------------------------------------------------------------
# B. deterministic vs randomized scoring views
# ----------------------------------------------------------------------
@dataclass
class ScoringViewResult:
    """Stability and accuracy of deterministic vs. random scoring views."""

    deterministic_score_std: float
    randomized_score_std: float
    deterministic_accuracy: float
    randomized_accuracy: float


def run_scoring_view_ablation(
    config: Optional[StreamExperimentConfig] = None,
    repeats: int = 5,
) -> ScoringViewResult:
    """Quantify the paper's design-principle argument.

    Score stability: std of repeated scorings of the same batch
    (deterministic flip => 0).  Accuracy: a full contrast-scoring run
    where the scoring view is the strong random augmentation instead of
    the flip.
    """
    config = config if config is not None else default_config()
    comp = build_components(config)
    rng = comp.rngs.get("view-ablation")
    labels = rng.integers(0, comp.dataset.num_classes, size=config.buffer_size)
    images = comp.dataset.sample(labels, rng)
    augment = SimCLRAugment(
        min_crop_scale=config.augment_min_crop,
        jitter_strength=config.augment_jitter,
    )

    det_scorer = ContrastScorer(comp.encoder, comp.projector)
    det_scores = np.stack([det_scorer.score(images) for _ in range(repeats)])

    rand_scorer = ContrastScorer(
        comp.encoder,
        comp.projector,
        view_fn=lambda batch: augment.augment_once(batch, rng),
    )
    rand_scores = np.stack([rand_scorer.score(images) for _ in range(repeats)])

    det_run = run_stream_experiment(config, "contrast-scoring", eval_points=1)

    # Randomized-view run: rebuild fresh components, swap the view.
    comp2 = build_components(config)
    view_rng = comp2.rngs.get("view-randomizer")
    comp2.scorer.view_fn = lambda batch: augment.augment_once(batch, view_rng)
    rand_run = run_stream_experiment(
        config, "contrast-scoring", eval_points=1, components=comp2
    )

    return ScoringViewResult(
        deterministic_score_std=float(det_scores.std(axis=0).mean()),
        randomized_score_std=float(rand_scores.std(axis=0).mean()),
        deterministic_accuracy=det_run.final_accuracy,
        randomized_accuracy=rand_run.final_accuracy,
    )


def format_scoring_view_ablation(result: ScoringViewResult) -> str:
    header = ["scoring view", "score std across runs", "final accuracy"]
    rows = [
        ["deterministic flip (paper)", f"{result.deterministic_score_std:.5f}",
         f"{result.deterministic_accuracy:.3f}"],
        ["randomized strong augment", f"{result.randomized_score_std:.5f}",
         f"{result.randomized_accuracy:.3f}"],
    ]
    return format_table(header, rows)


# ----------------------------------------------------------------------
# C. STC sweep
# ----------------------------------------------------------------------
@dataclass
class StcSweepResult:
    """Contrast-scoring and random accuracy across STC values."""

    stc_values: Tuple[int, ...]
    accuracy: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def margin(self, stc: int) -> float:
        return (
            self.accuracy[stc]["contrast-scoring"]
            - self.accuracy[stc]["random-replace"]
        )


def run_stc_sweep(
    config: Optional[StreamExperimentConfig] = None,
    stc_values: Sequence[int] = (1, 8, 64, 512),
    policies: Sequence[str] = ("contrast-scoring", "random-replace"),
    workers: int = 1,
) -> StcSweepResult:
    """Vary the temporal correlation strength of the stream.

    ``workers > 1`` runs the (STC, policy) grid in parallel via
    :func:`repro.experiments.parallel.run_sweep`.
    """
    base = config if config is not None else default_config()
    policies = canonical_policy_names(policies)
    result = StcSweepResult(stc_values=tuple(stc_values))
    specs = [
        SweepSpec(config=base.with_(stc=stc), policy=policy, eval_points=1)
        for stc in stc_values
        for policy in policies
    ]
    runs = iter(run_sweep(specs, workers=workers))
    for stc in stc_values:
        result.accuracy[stc] = {policy: next(runs).final_accuracy for policy in policies}
    return result


def format_stc_sweep(result: StcSweepResult) -> str:
    header = ["STC"] + list(next(iter(result.accuracy.values())).keys()) + ["CS margin"]
    rows = []
    for stc in result.stc_values:
        by_policy = result.accuracy[stc]
        rows.append(
            [str(stc)]
            + [f"{acc:.3f}" for acc in by_policy.values()]
            + [f"{result.margin(stc):+.3f}" if "random-replace" in by_policy else ""]
        )
    return format_table(header, rows)


# ----------------------------------------------------------------------
# D. momentum scores vs lazy scoring
# ----------------------------------------------------------------------
@dataclass
class MomentumAblationResult:
    """Accuracy of the momentum-score variants (Table I conjecture).

    The paper conjectures lazy scoring's small accuracy gain comes from
    stale scores acting like a momentum (EMA) score.  This ablation
    tests the conjecture directly: explicit EMA smoothing of fresh
    scores, with no laziness, at several momentum coefficients, next to
    a lazy run.
    """

    settings: List[str] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)
    rescoring: List[float] = field(default_factory=list)


def run_momentum_ablation(
    config: Optional[StreamExperimentConfig] = None,
    momenta: Sequence[float] = (0.0, 0.5, 0.9),
    lazy_interval: int = 20,
) -> MomentumAblationResult:
    """Compare explicit EMA scores against lazy scoring's implicit ones."""
    config = config if config is not None else default_config()
    result = MomentumAblationResult()
    for momentum in momenta:
        run = run_stream_experiment(
            config, "contrast-scoring", eval_points=1, score_momentum=momentum
        )
        label = "eager (paper)" if momentum == 0.0 else f"EMA momentum={momentum}"
        result.settings.append(label)
        result.accuracies.append(run.final_accuracy)
        result.rescoring.append(run.rescoring_fraction or 0.0)
    lazy_run = run_stream_experiment(
        config, "contrast-scoring", eval_points=1, lazy_interval=lazy_interval
    )
    result.settings.append(f"lazy T={lazy_interval} (implicit momentum)")
    result.accuracies.append(lazy_run.final_accuracy)
    result.rescoring.append(lazy_run.rescoring_fraction or 0.0)
    return result


def format_momentum_ablation(result: MomentumAblationResult) -> str:
    header = ["score update rule", "accuracy", "re-scoring pct"]
    rows = [
        [name, f"{acc:.3f}", f"{frac:.1%}"]
        for name, acc, frac in zip(
            result.settings, result.accuracies, result.rescoring
        )
    ]
    return format_table(header, rows)
