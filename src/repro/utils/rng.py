"""Seeded random-number management.

Every stochastic component in the library draws from a ``numpy.random.
Generator`` that is injected explicitly.  Nothing in the library touches
the global numpy RNG, which keeps experiments reproducible and lets the
test-suite pin seeds per test.

The :class:`RngRegistry` hands out independent child generators derived
from a single experiment seed so that, e.g., the data stream and the
model initialization do not share a sequence (changing the stream length
must not perturb the weights).
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

__all__ = ["new_rng", "RngRegistry"]


def new_rng(seed: int | None = None) -> np.random.Generator:
    """Create a fresh ``numpy.random.Generator`` from ``seed``.

    ``None`` produces OS-entropy seeding (only appropriate in examples,
    never in tests or benchmarks).
    """
    return np.random.default_rng(seed)


class RngRegistry:
    """Named, lazily created child generators under one experiment seed.

    Example
    -------
    >>> rngs = RngRegistry(seed=0)
    >>> stream_rng = rngs.get("stream")
    >>> model_rng = rngs.get("model")

    Requesting the same name twice returns the same generator object, so
    components can re-fetch their stream by name.  Child seeds depend
    only on ``(seed, name)``, never on the order of ``get`` calls.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._generators: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator registered under ``name``, creating it if new."""
        if name not in self._generators:
            # Hash the name into entropy so ordering of get() calls is irrelevant.
            name_entropy = [ord(c) for c in name]
            seq = np.random.SeedSequence([self.seed] + name_entropy)
            self._generators[name] = np.random.default_rng(seq)
        return self._generators[name]

    def names(self) -> Iterable[str]:
        """Names of all generators created so far."""
        return tuple(self._generators)

    def state(self) -> Dict[str, dict]:
        """Bit-generator states of every generator created so far.

        The returned mapping is JSON-serializable (nested dicts and
        ints) and, together with :meth:`set_state`, makes a run's
        randomness checkpointable: child seeds depend only on
        ``(seed, name)``, so a restored registry hands out generators
        whose future draws match the original run exactly.
        """
        return {
            name: gen.bit_generator.state for name, gen in self._generators.items()
        }

    def set_state(self, states: Dict[str, dict]) -> None:
        """Restore generator states written by :meth:`state`.

        Generators are created on demand (same ``(seed, name)``
        derivation as :meth:`get`) and then fast-forwarded to the saved
        state, so restore order is irrelevant.
        """
        for name, state in states.items():
            self.get(name).bit_generator.state = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, names={list(self._generators)})"
