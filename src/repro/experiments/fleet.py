"""The ``fleet`` experiment: multi-device rounds vs. a single device.

Runs a :class:`~repro.fleet.coordinator.FleetCoordinator` over the
configured device roster and reports two things:

* the **per-round table** — one row per round with each device's local
  kNN-probe accuracy and buffer class diversity, plus the aggregated
  global model's accuracy;
* the **fleet-vs-single-device gap** — the final global accuracy minus
  the final accuracy of one plain single-device Session run on the
  first device's resolved plan (same policy, scenario, seed, stream
  length, and lazy interval).  A positive gap means coordination beat
  going it alone on an equal-stream-length budget.

``workers > 1`` fans each round's device jobs over the persistent
:class:`~repro.experiments.pool.WorkerPool` through the shared
:func:`repro.experiments.parallel.run_jobs` engine, shipping session
state through a registered wire format (``--wire-format``; ``delta``
by default).  Every deterministic field of the result is
bitwise-identical to the serial run under every wire format.  The CLI
exposes this as ``repro fleet --devices N --rounds R --aggregator
NAME --wire-format NAME``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.experiments.config import StreamExperimentConfig, default_config
from repro.experiments.parallel import (
    JobTimings,
    format_timings_footer,
    result_fingerprint,
)
from repro.experiments.runner import StreamRunResult, run_stream_experiment
from repro.fleet.faults import FaultPlan
from repro.fleet.spec import DeviceSpec, FleetConfig
from repro.utils.tables import format_table

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.fleet.coordinator imports
    # repro.experiments.config, which initializes this package, so a
    # top-level coordinator import here would cycle.
    from repro.fleet.coordinator import FleetRunResult

__all__ = [
    "FleetExperimentResult",
    "run_fleet",
    "format_fleet",
]


@dataclass
class FleetExperimentResult:
    """The fleet run, its single-device baseline, and the gap."""

    fleet: FleetRunResult
    single: StreamRunResult
    fleet_gap: float

    def fingerprint(self) -> Dict[str, Any]:
        """Deterministic payload (wall-clock timing excluded): the
        serial and ``workers > 1`` runs must produce equal values."""
        return {
            "fleet": self.fleet.fingerprint(),
            "single": result_fingerprint(self.single),
            "fleet_gap": self.fleet_gap,
        }


def run_fleet(
    config: Optional[StreamExperimentConfig] = None,
    devices: int | Sequence[DeviceSpec] = 3,
    rounds: int = 2,
    aggregator: str = "fedavg",
    policy: Optional[str] = None,
    scenario: Optional[str] = None,
    eval_points: int = 1,
    workers: int = 1,
    wire_format: Optional[str] = None,
    participants: Optional[int] = None,
    sampler: Optional[str] = None,
    round_deadline_s: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> FleetExperimentResult:
    """Run the fleet experiment plus its single-device baseline.

    ``devices`` is a device count (uniform roster, per-device seeds
    fanning out from ``config.seed``) or an explicit
    :class:`DeviceSpec` sequence.  ``policy``/``scenario`` apply to the
    uniform roster *and* the baseline; an explicit roster keeps its own
    per-device selections (the baseline then uses the first device's
    policy).  When ``config`` already carries ``fleet``/``aggregator``
    fields they win over the ``devices``/``rounds``/``aggregator``
    arguments.  ``wire_format`` selects the transport codec for
    ``workers > 1`` (any :data:`repro.registry.WIRE_FORMATS` name;
    ``None`` = the ``REPRO_WIRE_FORMAT`` env var, else ``delta``).

    The population knobs mirror :class:`FleetConfig`: ``participants``
    trains only K sampled devices per round (``sampler`` names the
    :data:`repro.registry.CLIENT_SAMPLERS` rule, default ``uniform``),
    and ``round_deadline_s`` + ``fault_plan`` drive the straggler/dropout
    chaos harness.
    """
    from repro.fleet.coordinator import FleetCoordinator

    base = config if config is not None else default_config()
    if base.fleet is not None:
        coordinator = FleetCoordinator(
            base, eval_points=eval_points, workers=workers, wire_format=wire_format
        )
    else:
        if isinstance(devices, int):
            roster: Sequence[DeviceSpec] = tuple(
                DeviceSpec(
                    policy=policy if policy is not None else "contrast-scoring",
                    scenario=scenario,
                )
                for _ in range(devices)
            )
        else:
            roster = tuple(devices)
        fleet_config = FleetConfig(
            devices=tuple(roster),
            rounds=rounds,
            participants=participants,
            sampler=sampler,
            round_deadline_s=round_deadline_s,
            fault_plan=fault_plan,
        )
        coordinator = FleetCoordinator(
            base.with_(fleet=fleet_config, aggregator=aggregator),
            eval_points=eval_points,
            workers=workers,
            wire_format=wire_format,
        )
    fleet_result = coordinator.run()

    # Single-device reference: one plain Session on the first device's
    # *resolved* plan — same policy, scenario, seed, stream length, and
    # lazy interval — so the gap is an equal-budget comparison even
    # when the roster overrides those fields.
    plan = coordinator.plans[0]
    single = run_stream_experiment(
        plan.config,
        plan.policy,
        eval_points=eval_points,
        lazy_interval=plan.lazy_interval,
    )
    gap = fleet_result.final_global_knn_accuracy - float(
        single.info["final_knn_accuracy"]
    )
    return FleetExperimentResult(fleet=fleet_result, single=single, fleet_gap=gap)


def format_fleet(result: FleetExperimentResult) -> str:
    """Render the per-round accuracy/diversity table plus the gap.

    Small synchronous fleets get one column per device; population
    runs (client sampling / fault plans) and rosters past 8 devices
    get a compact per-round summary instead — a 1000-device table
    with a column per device would be unreadable.
    """
    fleet = result.fleet
    population = any(stats.participants is not None for stats in fleet.rounds)
    if population or len(fleet.device_names) > 8:
        header = ["round", "trained", "dropped", "late", "mean acc", "global acc"]
        rows = []
        for stats in fleet.rounds:
            suffix = "" if stats.synchronized else " (no sync)"
            rows.append(
                [
                    str(stats.round_index),
                    str(len(stats.devices)),
                    str(len(stats.dropped or ())),
                    str(len(stats.late or ())),
                    f"{stats.mean_device_accuracy:.3f}",
                    f"{stats.global_knn_accuracy:.3f}{suffix}",
                ]
            )
    else:
        header = ["round"] + [
            f"{name} (acc/div)" for name in fleet.device_names
        ] + ["global acc"]
        rows = []
        for stats in fleet.rounds:
            row = [str(stats.round_index)]
            for device in stats.devices:
                row.append(f"{device.knn_accuracy:.3f}/{device.buffer_diversity:.1f}")
            suffix = "" if stats.synchronized else " (no sync)"
            row.append(f"{stats.global_knn_accuracy:.3f}{suffix}")
            rows.append(row)
    single_knn = float(result.single.info["final_knn_accuracy"])
    summary = (
        f"aggregator={fleet.aggregator} devices={len(fleet.device_names)} "
        f"rounds={len(fleet.rounds)}\n"
        f"fleet-vs-single-device gap: {result.fleet_gap:+.3f} "
        f"(fleet global {fleet.final_global_knn_accuracy:.3f} vs "
        f"single {single_knn:.3f})"
    )
    lines = [format_table(header, rows), summary]
    # One footer for the run: each JobTimings field summed over the
    # per-round records, except workers (the widest round's pool).
    records = fleet.timings
    totals: Dict[str, Any] = {
        f.name: sum(entry[f.name] for entry in records) for f in fields(JobTimings)
    }
    totals.update(
        workers=max((entry["workers"] for entry in records), default=1),
        wire=fleet.wire_format,
    )
    footer = format_timings_footer(totals)
    if footer is not None:
        lines.append(footer)
    return "\n".join(lines)
