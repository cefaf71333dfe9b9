"""Experiment harnesses that regenerate every table and figure of the
paper's evaluation (plus the ablations listed in DESIGN.md).

Sweep-shaped harnesses (``run_multi_seed``, ``run_table2``,
``run_stc_sweep``, ``run_learning_curves``) accept ``workers=`` to fan
out over processes via :mod:`repro.experiments.parallel`.
"""

from repro.experiments.config import (
    StreamExperimentConfig,
    bench_scale,
    bench_seed,
    default_config,
    scaled_config,
)
from repro.experiments.runner import (
    POLICY_LABELS,
    POLICY_NAMES,
    StreamRunResult,
    run_stream_experiment,
)
from repro.experiments.fig3 import Fig3Result, format_fig3, run_fig3, run_supervised_reference
from repro.experiments.learning_curves import (
    CURVE_POLICIES,
    LearningCurveResult,
    format_learning_curves,
    run_learning_curves,
)
from repro.experiments.table1 import (
    LAZY_INTERVALS,
    Table1Result,
    format_table1,
    run_table1,
)
from repro.experiments.table2 import (
    BUFFER_SIZES,
    Table2Result,
    format_table2,
    run_table2,
)
from repro.experiments.drift import DriftResult, format_drift, run_drift_experiment
from repro.experiments.parallel import SweepSpec, result_fingerprint, run_sweep
from repro.experiments.scenario_sweep import (
    ScenarioSweepResult,
    format_scenario_sweep,
    run_scenario_sweep,
)
from repro.experiments.multi_seed import (
    MultiSeedResult,
    SeedAggregate,
    format_multi_seed,
    run_multi_seed,
)
from repro.experiments.fleet import (
    FleetExperimentResult,
    format_fleet,
    run_fleet,
)
from repro.experiments.serve import (
    ServeExperimentResult,
    format_serve,
    run_serve,
)
from repro.experiments.ablations import (
    GradientAblationResult,
    MomentumAblationResult,
    ScoringViewResult,
    StcSweepResult,
    format_gradient_ablation,
    format_momentum_ablation,
    format_scoring_view_ablation,
    format_stc_sweep,
    run_gradient_ablation,
    run_momentum_ablation,
    run_scoring_view_ablation,
    run_stc_sweep,
)

__all__ = [
    "StreamExperimentConfig",
    "default_config",
    "scaled_config",
    "bench_scale",
    "bench_seed",
    "POLICY_NAMES",
    "POLICY_LABELS",
    "StreamRunResult",
    "run_stream_experiment",
    "Fig3Result",
    "run_fig3",
    "run_supervised_reference",
    "format_fig3",
    "CURVE_POLICIES",
    "LearningCurveResult",
    "run_learning_curves",
    "format_learning_curves",
    "LAZY_INTERVALS",
    "Table1Result",
    "run_table1",
    "format_table1",
    "BUFFER_SIZES",
    "Table2Result",
    "run_table2",
    "format_table2",
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
    "MultiSeedResult",
    "SeedAggregate",
    "run_multi_seed",
    "format_multi_seed",
    "SweepSpec",
    "run_sweep",
    "result_fingerprint",
    "DriftResult",
    "run_drift_experiment",
    "format_drift",
    "ScenarioSweepResult",
    "run_scenario_sweep",
    "format_scenario_sweep",
    "FleetExperimentResult",
    "run_fleet",
    "format_fleet",
    "ServeExperimentResult",
    "run_serve",
    "format_serve",
]
