"""Server-side model aggregation rules — the ``AGGREGATORS`` registry.

After every fleet round the coordinator hands the aggregator one
:class:`DeviceRoundReport` per device (its model arrays, the number of
stream samples it consumed this round, and its training-free kNN-probe
accuracy).  The aggregator returns the new global model state — a dict
of ``encoder/*`` and ``projector/*`` arrays broadcast back into every
device — or ``None`` to skip synchronization entirely.

Aggregators register with :func:`repro.registry.register_aggregator`
and are then accepted by name everywhere (``config.aggregator``, the
CLI's ``--aggregator`` flag, ``--list``), with the same alias and
"did you mean" semantics as policies/backends/scenarios.  Rules are
stateless: the next global depends only on the previous global and
this round's reports, which is why a fleet checkpoint carries no
aggregator state.

Determinism contract: aggregation always runs in the coordinator
process, in device order, accumulating in float64 before casting back
to each array's dtype — so a fleet round is bitwise-reproducible and
independent of the worker fan-out.  With a single device the
normalized weight is exactly ``1.0``, making every built-in rule a
bitwise identity (the fedavg-fleet-of-one == plain-Session guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.registry import AGGREGATORS, register_aggregator

__all__ = [
    "DeviceRoundReport",
    "Aggregator",
    "FedAvg",
    "FedAvgAsync",
    "BestOf",
    "LocalOnly",
    "create_aggregator",
    "weighted_mean_state",
]


@dataclass
class DeviceRoundReport:
    """What one device hands the server after a local round."""

    device: str
    model_state: Dict[str, np.ndarray]
    weight: float
    knn_accuracy: float
    info: Dict[str, float] = field(default_factory=dict)


class Aggregator:
    """Base class for server-side aggregation rules.

    Subclasses implement :meth:`aggregate`.
    """

    def aggregate(
        self,
        global_state: Optional[Dict[str, np.ndarray]],
        reports: Sequence[DeviceRoundReport],
    ) -> Optional[Dict[str, np.ndarray]]:
        """Produce the next global model state.

        ``global_state`` is the state this aggregator returned last
        round (``None`` on the first aggregation).  Returning ``None``
        means "do not synchronize": the coordinator keeps every device
        on its local weights.
        """
        raise NotImplementedError


def weighted_mean_state(
    reports: Sequence[DeviceRoundReport],
) -> Dict[str, np.ndarray]:
    """Sample-weighted mean of the reports' model arrays.

    Weights are normalized first and accumulation happens in float64
    (cast back to each array's dtype afterwards), so the result depends
    only on report order — never on worker scheduling — and a single
    report comes back bitwise-unchanged (its normalized weight is
    exactly 1.0).  Zero total weight (every stream exhausted) falls
    back to uniform weights.
    """
    if not reports:
        raise ValueError("need at least one device report to aggregate")
    keys = list(reports[0].model_state)
    for report in reports[1:]:
        if list(report.model_state) != keys:
            raise ValueError(
                f"device {report.device!r} reports model keys that differ "
                f"from device {reports[0].device!r}; fleets must share one "
                "architecture to average parameters"
            )
    raw = np.array([max(float(r.weight), 0.0) for r in reports], dtype=np.float64)
    total = raw.sum()
    weights = raw / total if total > 0 else np.full(len(reports), 1.0 / len(reports))
    out: Dict[str, np.ndarray] = {}
    for key in keys:
        first = reports[0].model_state[key]
        accum = np.zeros(first.shape, dtype=np.float64)
        for weight, report in zip(weights, reports):
            accum += weight * report.model_state[key].astype(np.float64)
        out[key] = accum.astype(first.dtype)
    return out


def create_aggregator(name: str, **options) -> Aggregator:
    """Construct an aggregation rule by registered name.

    Every key in ``options`` is an explicit caller option (not an
    offer): a factory that does not accept one raises ``TypeError``,
    mirroring :func:`repro.registry.create_policy`.
    """
    rule = AGGREGATORS.create_with_required(name, tuple(options), **options)
    if not isinstance(rule, Aggregator):
        raise TypeError(
            f"aggregator {name!r} built a {type(rule).__name__}, expected "
            "an Aggregator (with an aggregate method)"
        )
    return rule


# ----------------------------------------------------------------------
# Built-in rules.
# ----------------------------------------------------------------------
@register_aggregator(
    "fedavg",
    label="Sample-weighted parameter averaging",
    aliases=("avg", "federated-averaging"),
)
class FedAvg(Aggregator):
    """Classic FedAvg: ``global = sum_d (n_d / n) * model_d``.

    ``n_d`` is the number of stream samples device ``d`` consumed this
    round, so devices that processed more data pull the average harder.
    Optimizer moments stay local — only model arrays synchronize.
    """

    def aggregate(self, global_state, reports):
        return weighted_mean_state(reports)


@register_aggregator(
    "fedavg-async",
    label="Staleness-weighted FedAvg (buffered async rounds)",
    aliases=("async", "fedasync"),
)
class FedAvgAsync(Aggregator):
    """Staleness-weighted FedAvg for asynchronous rounds.

    The coordinator stamps every report with ``info["staleness"]`` —
    how many global versions were published between the moment the
    device *started* from the global model and the moment its update is
    finally aggregated.  On-time reports carry staleness 0; updates
    buffered past the round deadline arrive one round later with
    staleness >= 1.

    Update rule (DESIGN.md §13, float64 accumulation)::

        s_d      = (1 + staleness_d) ** -alpha          # decay factor
        avg_t    = weighted_mean(models, weights n_d * s_d)
        mix_t    = sum_d(n_d * s_d) / sum_d(n_d)        # freshness mass
        global_t = (1 - mix_t) * global_{t-1} + mix_t * avg_t

    With every report fresh (all staleness 0) ``mix_t == 1.0`` exactly
    and the rule degenerates to classic FedAvg bit for bit — which is
    what keeps the synchronous baseline, and the fleet-of-1 identity,
    intact when this aggregator is selected without a deadline.  Stale
    reports both pull the average less (per-report ``s_d``) and leave
    more of the previous global in place (round-level ``mix_t``).
    """

    def __init__(self, alpha: float = 0.5) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)

    def aggregate(self, global_state, reports):
        if not reports:
            raise ValueError("need at least one device report to aggregate")
        scaled: List[DeviceRoundReport] = []
        fresh_mass = 0.0
        total_mass = 0.0
        for report in reports:
            staleness = max(float(report.info.get("staleness", 0.0)), 0.0)
            decay = (1.0 + staleness) ** -self.alpha
            weight = max(float(report.weight), 0.0)
            fresh_mass += weight * decay
            total_mass += weight
            scaled.append(
                DeviceRoundReport(
                    device=report.device,
                    model_state=report.model_state,
                    weight=weight * decay,
                    knn_accuracy=report.knn_accuracy,
                    info=report.info,
                )
            )
        average = weighted_mean_state(scaled)
        if global_state is None:
            return average
        mix = fresh_mass / total_mass if total_mass > 0 else 1.0
        if mix >= 1.0:
            return average
        out: Dict[str, np.ndarray] = {}
        for key, avg in average.items():
            previous = global_state[key].astype(np.float64)
            blended = (1.0 - mix) * previous + mix * avg.astype(np.float64)
            out[key] = blended.astype(avg.dtype)
        return out


@register_aggregator(
    "best-of",
    label="Broadcast the best kNN-probe device",
    aliases=("best",),
)
class BestOf(Aggregator):
    """Winner-take-all: the device with the highest kNN-probe accuracy
    this round becomes the global model (ties go to the lowest device
    index, keeping selection deterministic)."""

    def aggregate(self, global_state, reports):
        if not reports:
            raise ValueError("need at least one device report to aggregate")
        best = max(
            range(len(reports)),
            key=lambda i: (reports[i].knn_accuracy, -i),
        )
        return {key: value.copy() for key, value in reports[best].model_state.items()}


@register_aggregator(
    "local-only",
    label="No synchronization (baseline)",
    aliases=("none", "no-sync"),
)
class LocalOnly(Aggregator):
    """The no-coordination baseline: every device keeps its own model.

    The round table still reports per-device accuracies, so this is the
    reference the synchronized rules are measured against.
    """

    def aggregate(self, global_state, reports):
        return None
