"""Client samplers: which K of N devices train in a given round.

Population-scale federated rounds never involve every device — the
coordinator draws a participant subset each round.  Samplers are
registered in :data:`repro.registry.CLIENT_SAMPLERS` (same alias /
"did you mean" semantics as every other registry) and selected by
``FleetConfig.sampler``; ``FleetConfig.participants`` sets K.

Contracts every sampler must honour:

* ``sample`` returns ``k`` distinct device indices in **ascending
  order** — the coordinator's payload build, sticky worker routing,
  and fingerprints all rely on a canonical order, and sorting makes
  ``k == n`` degenerate to *every* device, which is what keeps a
  sampled fleet with K == N bitwise identical to a full fleet.
* All randomness comes from the ``rng`` argument (the coordinator owns
  it and checkpoints its state), and any internal schedule state lives
  in ``state_dict``/``load_state_dict`` — so a run resumed mid-schedule
  continues the exact participant sequence.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.registry import CLIENT_SAMPLERS, register_client_sampler

__all__ = [
    "ClientSampler",
    "UniformSampler",
    "RoundRobinSampler",
    "create_client_sampler",
]


class ClientSampler:
    """Base class: a per-round participant selection strategy."""

    name = "base"

    def sample(
        self,
        round_index: int,
        num_devices: int,
        k: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """``k`` distinct indices from ``range(num_devices)``, ascending."""
        raise NotImplementedError

    # Stateful samplers (e.g. round-robin) persist their schedule here;
    # the coordinator folds this into its own state_dict.
    def state_dict(self) -> Dict[str, Any]:
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        del state

    @staticmethod
    def _validate(num_devices: int, k: int) -> None:
        if not 1 <= k <= num_devices:
            raise ValueError(
                f"cannot sample {k} participants from {num_devices} devices"
            )


@register_client_sampler("uniform", aliases=("random",))
class UniformSampler(ClientSampler):
    """Uniform K-of-N without replacement — the FedAvg default."""

    name = "uniform"

    def sample(
        self,
        round_index: int,
        num_devices: int,
        k: int,
        rng: np.random.Generator,
    ) -> List[int]:
        self._validate(num_devices, k)
        picked = rng.choice(num_devices, size=k, replace=False)
        return sorted(int(i) for i in picked)


@register_client_sampler("round-robin", aliases=("rr",))
class RoundRobinSampler(ClientSampler):
    """Deterministic rotation: each round takes the next K in order.

    Draws nothing from ``rng``; the cursor is the schedule state, so a
    resumed run picks up exactly where the original left off.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def sample(
        self,
        round_index: int,
        num_devices: int,
        k: int,
        rng: np.random.Generator,
    ) -> List[int]:
        self._validate(num_devices, k)
        start = self._cursor % num_devices
        picked = [(start + offset) % num_devices for offset in range(k)]
        self._cursor = (start + k) % num_devices
        return sorted(picked)

    def state_dict(self) -> Dict[str, Any]:
        return {"cursor": self._cursor}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._cursor = int(state.get("cursor", 0))


def create_client_sampler(name: str) -> ClientSampler:
    """Instantiate a registered sampler (aliases + "did you mean")."""
    return CLIENT_SAMPLERS.create(name)
