"""Multi-device fleet simulation with pluggable model aggregation.

The coordination layer above :class:`repro.session.Session` (see
docs/FLEET.md and DESIGN.md §10): a :class:`FleetConfig` of
:class:`DeviceSpec` entries describes N heterogeneous devices, the
:class:`FleetCoordinator` runs rounds of local Session training
followed by server-side aggregation, and aggregation rules plug in
through the ``AGGREGATORS`` registry
(:func:`repro.registry.register_aggregator`).

Population-scale features (DESIGN.md §13): client sampling trains only
K of N devices per round (``CLIENT_SAMPLERS`` registry,
:mod:`repro.fleet.sampling`), a seeded :class:`FaultPlan`
(:mod:`repro.fleet.faults`) injects deterministic stragglers, dropouts,
and crashes, and the ``fedavg-async`` aggregator folds in stale
updates.
"""

from repro.fleet.aggregators import (
    Aggregator,
    BestOf,
    DeviceRoundReport,
    FedAvg,
    FedAvgAsync,
    LocalOnly,
    create_aggregator,
    weighted_mean_state,
)
from repro.fleet.coordinator import (
    MODEL_PREFIXES,
    DevicePlan,
    DeviceRoundStats,
    FleetCoordinator,
    FleetRoundStats,
    FleetRunResult,
)
from repro.fleet.faults import DeviceFaults, FaultPlan, fault_rng
from repro.fleet.sampling import (
    ClientSampler,
    RoundRobinSampler,
    UniformSampler,
    create_client_sampler,
)
from repro.fleet.spec import DeviceSpec, FleetConfig

__all__ = [
    "Aggregator",
    "BestOf",
    "ClientSampler",
    "DeviceFaults",
    "DevicePlan",
    "DeviceRoundReport",
    "DeviceRoundStats",
    "DeviceSpec",
    "FaultPlan",
    "FedAvg",
    "FedAvgAsync",
    "FleetConfig",
    "FleetCoordinator",
    "FleetRoundStats",
    "FleetRunResult",
    "LocalOnly",
    "MODEL_PREFIXES",
    "RoundRobinSampler",
    "UniformSampler",
    "create_aggregator",
    "create_client_sampler",
    "fault_rng",
    "weighted_mean_state",
]
