"""The model versions the ``serve`` workload publishes.

Version ``v`` is the default-config encoder/projector (model seed 0)
with every float array scaled by a seeded log-normal factor, so the
server can publish a new version every second and the load generator
can rebuild any version offline to re-score answered requests.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

MODEL_SEED = 0


def serve_config():
    from repro.experiments.config import default_config

    return default_config(seed=MODEL_SEED)


def base_state(components) -> Dict[str, np.ndarray]:
    """Copies of the ``encoder/*`` + ``projector/*`` arrays of fresh
    components (copies: activating a version overwrites the modules)."""
    state = {f"encoder/{k}": np.array(v) for k, v in components.encoder.state_dict().items()}
    state.update(
        {f"projector/{k}": np.array(v) for k, v in components.projector.state_dict().items()}
    )
    return state


def version_state(base: Dict[str, np.ndarray], version: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng([0x5E7E, version])
    out = {}
    for key in sorted(base):
        value = np.asarray(base[key])
        if value.dtype.kind == "f":
            factor = np.exp(0.05 * rng.standard_normal(value.shape))
            out[key] = (value * factor).astype(value.dtype)
        else:
            out[key] = value.copy()
    return out


def load_version(components, state: Dict[str, np.ndarray]) -> None:
    """Load a version's arrays into a scorer's encoder and projector."""
    for prefix, module in (("encoder/", components.encoder), ("projector/", components.projector)):
        module.load_state_dict(
            {k[len(prefix):]: v for k, v in state.items() if k.startswith(prefix)}
        )
