"""Declarative fleet description: :class:`DeviceSpec` and :class:`FleetConfig`.

A fleet is *data*, not code: a tuple of per-device specs plus a round
count, carried on ``StreamExperimentConfig.fleet`` so that — exactly
like the backend and scenario selections — the fleet shape serializes
into checkpoints and sweep payloads and crosses process boundaries
with the config.  Both dataclasses are frozen and fully hashable, and
round-trip losslessly through ``to_dict``/``from_dict`` (strict JSON).

This module is deliberately dependency-light (``dataclasses`` plus the
equally-declarative :mod:`repro.fleet.faults`):
:mod:`repro.experiments.config` imports it at module level, so pulling
in registries or the nn stack here would create import cycles.  Name
resolution (policy/scenario/backend/profile) therefore happens in
:class:`repro.fleet.coordinator.FleetCoordinator`, which validates
every field eagerly before the first round runs.

Transport note: specs describe *what* each device runs, never *how*
its state moves between processes — the wire format (``json-b64`` /
``shm`` / ``delta``, see :mod:`repro.experiments.wire`) is an
execution-time choice on the coordinator, deliberately kept out of
these dataclasses so the same serialized fleet reproduces bitwise
under any transport.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.fleet.faults import FaultPlan

__all__ = ["DeviceSpec", "FleetConfig"]


@dataclass(frozen=True)
class DeviceSpec:
    """One simulated device: what it runs and under which constraints.

    ``None`` fields inherit from the fleet-level config: ``scenario``
    and ``backend`` fall back to the config's selections, ``seed``
    falls back to ``config.seed + device_index`` (so a default fleet of
    N devices sees N distinct streams), and ``total_samples`` falls
    back to ``config.total_samples``.

    ``profile`` names a :data:`repro.device.cost_model.DEVICE_PROFILES`
    entry; when ``compute_budget_mj`` (a per-iteration energy budget in
    millijoules) is set, the coordinator derives the smallest lazy
    scoring interval that fits the budget on that profile — the
    cost-model tie-in that makes heterogeneous fleets quantitative.
    ``lazy_interval`` sets the interval directly instead (the two are
    mutually exclusive).
    """

    policy: str = "contrast-scoring"
    scenario: Optional[str] = None
    backend: Optional[str] = None
    seed: Optional[int] = None
    total_samples: Optional[int] = None
    profile: str = "jetson-class"
    compute_budget_mj: Optional[float] = None
    lazy_interval: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.policy, str) or not self.policy:
            raise ValueError(f"DeviceSpec.policy must be a non-empty string, got {self.policy!r}")
        if self.scenario is not None and (not isinstance(self.scenario, str) or not self.scenario):
            raise ValueError(f"DeviceSpec.scenario must be None or a non-empty string, got {self.scenario!r}")
        if self.backend is not None and (not isinstance(self.backend, str) or not self.backend):
            raise ValueError(f"DeviceSpec.backend must be None or a non-empty string, got {self.backend!r}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ValueError(f"DeviceSpec.seed must be None or an int, got {self.seed!r}")
        if self.total_samples is not None and self.total_samples < 1:
            raise ValueError(f"DeviceSpec.total_samples must be None or >= 1, got {self.total_samples}")
        if not isinstance(self.profile, str) or not self.profile:
            raise ValueError(f"DeviceSpec.profile must be a non-empty string, got {self.profile!r}")
        if self.compute_budget_mj is not None and self.compute_budget_mj <= 0:
            raise ValueError(
                f"DeviceSpec.compute_budget_mj must be None or > 0, got {self.compute_budget_mj}"
            )
        if self.lazy_interval is not None and self.lazy_interval < 1:
            raise ValueError(f"DeviceSpec.lazy_interval must be None or >= 1, got {self.lazy_interval}")
        if self.compute_budget_mj is not None and self.lazy_interval is not None:
            raise ValueError(
                "DeviceSpec.compute_budget_mj and DeviceSpec.lazy_interval are "
                "mutually exclusive (the budget derives the interval)"
            )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeviceSpec":
        return cls(**data)


@dataclass(frozen=True)
class FleetConfig:
    """The fleet shape: device roster plus the synchronization schedule.

    Each of the ``rounds`` rounds runs every device's local Session for
    roughly ``1/rounds`` of its stream, then hands the per-device model
    states to the configured aggregator
    (``StreamExperimentConfig.aggregator``).

    Population fields (all optional, defaults preserve the synchronous
    full-participation behaviour bit for bit):

    * ``participants`` — K, the number of devices that train per
      round.  ``None`` means every device, every round (no sampler is
      consulted and no sampling RNG is drawn).
    * ``sampler`` — a :data:`repro.registry.CLIENT_SAMPLERS` name
      choosing *which* K devices; it requires ``participants``.
      ``None`` means ``uniform``.
    * ``round_deadline_s`` — simulated per-round deadline.  A device
      whose :class:`~repro.fleet.faults.FaultPlan` straggler delay
      exceeds it reports *late*: its update is buffered and folded
      into the next round's aggregation with ``staleness`` 1 (see the
      ``fedavg-async`` aggregator).
    * ``fault_plan`` — the seeded chaos schedule (stragglers /
      dropouts / crash-at-round); part of the fleet shape so chaos
      runs serialize into checkpoints and replay deterministically.
    """

    devices: Tuple[DeviceSpec, ...] = field(default_factory=tuple)
    rounds: int = 2
    participants: Optional[int] = None
    sampler: Optional[str] = None
    round_deadline_s: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.devices:
            raise ValueError("FleetConfig.devices must name at least one device")
        for index, spec in enumerate(self.devices):
            if not isinstance(spec, DeviceSpec):
                raise ValueError(
                    f"FleetConfig.devices[{index}] must be a DeviceSpec, "
                    f"got {type(spec).__name__}"
                )
        if self.rounds < 1:
            raise ValueError(f"FleetConfig.rounds must be >= 1, got {self.rounds}")
        if self.participants is not None and not 1 <= self.participants <= len(self.devices):
            raise ValueError(
                f"FleetConfig.participants must be in [1, {len(self.devices)}], "
                f"got {self.participants}"
            )
        if self.sampler is not None and (not isinstance(self.sampler, str) or not self.sampler):
            raise ValueError(
                f"FleetConfig.sampler must be None or a non-empty string, got {self.sampler!r}"
            )
        if self.sampler is not None and self.participants is None:
            raise ValueError(
                f"FleetConfig.sampler {self.sampler!r} needs participants: a "
                "sampler picks K of N devices, and participants=None trains all"
            )
        if self.round_deadline_s is not None and self.round_deadline_s <= 0:
            raise ValueError(
                f"FleetConfig.round_deadline_s must be None or > 0, got {self.round_deadline_s}"
            )
        if self.fault_plan is not None:
            if not isinstance(self.fault_plan, FaultPlan):
                raise ValueError(
                    f"FleetConfig.fault_plan must be a FaultPlan, "
                    f"got {type(self.fault_plan).__name__}"
                )
            for device, _ in self.fault_plan.overrides:
                if device >= len(self.devices):
                    raise ValueError(
                        f"FleetConfig.fault_plan overrides device {device}, but the "
                        f"fleet has {len(self.devices)} devices"
                    )

    @classmethod
    def uniform(cls, num_devices: int, rounds: int = 2, **spec_fields: Any) -> "FleetConfig":
        """A fleet of ``num_devices`` identical specs (seeds still fan
        out per device because ``DeviceSpec.seed`` defaults to None)."""
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        return cls(
            devices=tuple(DeviceSpec(**spec_fields) for _ in range(num_devices)),
            rounds=rounds,
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "devices": [spec.to_dict() for spec in self.devices],
            "rounds": self.rounds,
            "participants": self.participants,
            "sampler": self.sampler,
            "round_deadline_s": self.round_deadline_s,
            "fault_plan": None if self.fault_plan is None else self.fault_plan.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetConfig":
        # .get defaults keep payloads that predate the population fields
        # loadable; keys of removed fields are ignored, since none of
        # them changed what a kept configuration runs.
        fault_plan = data.get("fault_plan")
        return cls(
            devices=tuple(DeviceSpec.from_dict(spec) for spec in data["devices"]),
            rounds=int(data["rounds"]),
            participants=data.get("participants"),
            sampler=data.get("sampler"),
            round_deadline_s=data.get("round_deadline_s"),
            fault_plan=None if fault_plan is None else FaultPlan.from_dict(fault_plan),
        )
