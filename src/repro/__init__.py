"""repro — reproduction of "Enabling On-Device Self-Supervised
Contrastive Learning with Selective Data Contrast" (DAC 2021).

Public API tour
---------------
* :mod:`repro.core` — the paper's contribution: contrast scoring
  (:class:`~repro.core.ContrastScorer`), the replacement policy
  (:class:`~repro.core.ContrastScoringPolicy`), lazy scoring
  (:class:`~repro.core.LazyScoringSchedule`), and the stage-1 framework
  (:class:`~repro.core.OnDeviceContrastiveLearner`).
* :mod:`repro.nn` — numpy autograd substrate: ResNet encoder,
  projection head, NT-Xent loss, Adam.
* :mod:`repro.data` — synthetic datasets, the stream-scenario zoo
  (temporal STC runs, drift, cyclic drift, bursty, imbalanced,
  corrupted — see docs/SCENARIOS.md), SimCLR augmentations, label
  splits.
* :mod:`repro.selection` — the four label-free baselines.
* :mod:`repro.train` — stage-2 linear probes and the supervised
  baseline.
* :mod:`repro.experiments` — harnesses regenerating every paper table
  and figure.

* :mod:`repro.registry` — the extension surface: ``@register_policy``,
  ``@register_dataset``, ``@register_encoder``, ``@register_augment``,
  ``@register_backend``, ``@register_scenario``.
* :mod:`repro.nn.backend` — pluggable array-execution backends
  (``numpy`` reference, ``fused`` inference engine; select via
  ``REPRO_BACKEND``, ``--backend``, or ``config.backend``).
* :mod:`repro.session` — the unified experiment surface:
  :class:`~repro.session.Session`.

Quickstart
----------
>>> from repro import Session
>>> result = (
...     Session.from_config(seed=0, total_samples=640)
...     .with_policy("contrast-scoring")
...     .run()
... )  # doctest: +SKIP
>>> result.final_accuracy  # doctest: +SKIP
"""

from repro.core import (
    ContrastScorer,
    ContrastScoringPolicy,
    DataBuffer,
    LazyScoringSchedule,
    OnDeviceContrastiveLearner,
)
from repro.registry import (
    create_policy,
    register_augment,
    register_backend,
    register_dataset,
    register_encoder,
    register_policy,
    register_scenario,
)
from repro.session import Session, StreamRunResult
from repro.version import __version__

__all__ = [
    "__version__",
    "ContrastScorer",
    "ContrastScoringPolicy",
    "DataBuffer",
    "LazyScoringSchedule",
    "OnDeviceContrastiveLearner",
    "Session",
    "StreamRunResult",
    "create_policy",
    "register_augment",
    "register_backend",
    "register_dataset",
    "register_encoder",
    "register_policy",
    "register_scenario",
]

