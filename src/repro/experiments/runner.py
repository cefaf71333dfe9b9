"""Shared experiment machinery: component wiring and the stream runner.

Every figure/table harness builds on :func:`run_stream_experiment`,
which executes one full stage-1 run (stream → selective replacement →
contrastive update) while periodically probing the encoder (stage 2) to
record a learning curve.

The canonical implementation lives in :class:`repro.session.Session`
(execution, checkpoint/resume, lifecycle callbacks) and
:mod:`repro.registry` (component construction:
``repro.session.build_components``, ``repro.registry.create_policy``).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, Optional

from repro.registry import policy_labels
from repro.session import ExperimentComponents, Session, StreamRunResult
from repro.experiments.config import StreamExperimentConfig

__all__ = [
    "POLICY_NAMES",
    "POLICY_LABELS",
    "ExperimentComponents",
    "StreamRunResult",
    "run_stream_experiment",
]

#: Canonical policy identifiers used across benchmarks and the CLI, in
#: the paper's figure order.  Plugins registered via
#: ``@register_policy`` are *not* listed here — use
#: :func:`repro.registry.policy_names` for the full set.
POLICY_NAMES = ("contrast-scoring", "random-replace", "fifo", "selective-bp", "k-center")

class _LivePolicyLabels(Mapping):
    """A read-only live view over the policy registry's labels.

    Not a snapshot: policies registered after this module is imported
    (plugins) show their labels too.
    """

    def __getitem__(self, name: str) -> str:
        return policy_labels()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(policy_labels())

    def __len__(self) -> int:
        return len(policy_labels())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(policy_labels())


#: Pretty labels matching the paper's figures (live registry metadata).
POLICY_LABELS = _LivePolicyLabels()


def run_stream_experiment(
    config: StreamExperimentConfig,
    policy_name: str,
    eval_points: int = 6,
    label_fraction: float = 1.0,
    lazy_interval: Optional[int] = None,
    score_momentum: float = 0.0,
    components: Optional[ExperimentComponents] = None,
) -> StreamRunResult:
    """Execute one full stream-learning run and probe the encoder.

    A thin wrapper over :class:`repro.session.Session` (results are
    identical); kept because every harness and benchmark phrases its
    protocol in terms of this function.

    Parameters
    ----------
    config: experiment parameters.
    policy_name: any registered policy name (see
        :func:`repro.registry.policy_names`).
    eval_points: number of probe checkpoints along the stream (>= 1;
        the final checkpoint is always taken at the end).
    label_fraction: stage-2 label budget for every probe.
    lazy_interval: lazy-scoring interval T (contrast-scoring only).
    score_momentum: EMA smoothing of scores (contrast-scoring only).
    components: pre-built components (rebuilt from config when None).
    """
    session = (
        Session(config, policy=policy_name)
        .with_eval_points(eval_points)
        .with_label_fraction(label_fraction)
        .with_lazy_interval(lazy_interval)
        .with_score_momentum(score_momentum)
    )
    if components is not None:
        session.with_components(components)
    return session.run()
