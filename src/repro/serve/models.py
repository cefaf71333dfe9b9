"""Model versioning for the scoring service.

A :class:`ModelRegistry` holds immutable snapshots of "the model" —
the ``encoder/*`` + ``projector/*`` arrays of a
:meth:`repro.session.Session.state_dict` learner payload, the same
slice the fleet engine aggregates and broadcasts
(:data:`repro.core.framework.MODEL_PREFIXES`) — under monotonically
increasing integer versions:

* :meth:`publish` snapshots a new version and advances the *current*
  pointer (what unpinned devices are served with);
* :meth:`pin` pins a device id to a specific retained version (canary
  cohorts, staged rollouts); :meth:`resolve` maps a device id to the
  version it should be scored against;
* :meth:`attach` subscribes the registry to a
  :class:`~repro.fleet.coordinator.FleetCoordinator`: every
  synchronizing broadcast publishes the new global model, so the
  serving tier always scores against what the fleet just agreed on —
  and, through :meth:`on_publish` subscribers, the serving cache drops
  every stale entry at the same moment (docs/SERVE.md).

Snapshots are defensive copies both ways: published arrays are copied
in, and mutating a served model state never corrupts the registry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.framework import MODEL_PREFIXES, model_slice

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Versioned model snapshots with device pinning.

    Parameters
    ----------
    keep:
        Retain at most this many versions (None = all).  When a publish
        overflows the limit, the oldest versions that are neither
        current nor pinned are pruned; :meth:`versions` shrinks and
        subscribers (the serving cache) invalidate accordingly.
    """

    def __init__(self, keep: Optional[int] = None) -> None:
        if keep is not None and keep < 1:
            raise ValueError(f"keep must be >= 1 or None, got {keep}")
        self.keep = keep
        self._versions: Dict[int, Dict[str, np.ndarray]] = {}
        self._sources: Dict[int, str] = {}
        self._current: Optional[int] = None
        self._next = 1
        self._pins: Dict[str, int] = {}
        self._on_publish: List[Callable[[int, "ModelRegistry"], None]] = []

    # -- publishing -----------------------------------------------------
    def publish(
        self, model_state: Dict[str, np.ndarray], *, source: str = ""
    ) -> int:
        """Snapshot ``model_state`` as the new current version.

        ``model_state`` maps ``encoder/...`` / ``projector/...`` keys to
        arrays (the fleet broadcast payload shape); every key must carry
        one of those prefixes and at least one key is required.  Arrays
        are copied.  Returns the new version number and fires every
        :meth:`on_publish` subscriber after pruning, so subscribers see
        the post-publish retained-version set.
        """
        if not model_state:
            raise ValueError("model_state is empty: nothing to publish")
        for key in model_state:
            if not key.startswith(MODEL_PREFIXES):
                raise ValueError(
                    f"model_state key {key!r} lacks the model prefixes "
                    f"{'/'.join(MODEL_PREFIXES)} — pass the encoder/projector "
                    "slice only (see publish_session)"
                )
        version = self._next
        self._next += 1
        self._versions[version] = {
            key: np.asarray(value).copy() for key, value in model_state.items()
        }
        self._sources[version] = source
        self._current = version
        self._prune()
        for fn in self._on_publish:
            fn(version, self)
        return version

    def publish_session(self, session: Any, *, source: str = "session") -> int:
        """Publish the model slice of a live :class:`~repro.session.Session`.

        Filters ``session.state_dict()["learner"]`` down to the
        ``encoder/*`` + ``projector/*`` arrays — optimizer moments,
        buffer contents, and counters stay out of the serving tier.
        """
        return self.publish(model_slice(session.state_dict()["learner"]), source=source)

    def attach(self, coordinator: Any, *, source: str = "fleet-broadcast") -> None:
        """Publish every synchronizing broadcast of ``coordinator``.

        ``coordinator`` needs only an ``on_broadcast(fn)`` hook calling
        ``fn(model_state)`` after each broadcast
        (:class:`~repro.fleet.coordinator.FleetCoordinator` provides
        it).  Each broadcast becomes a new version, advancing what
        unpinned devices are served with and invalidating stale cache
        entries through :meth:`on_publish` subscribers.
        """
        coordinator.on_broadcast(
            lambda model_state: self.publish(model_state, source=source)
        )

    def _prune(self) -> None:
        if self.keep is None:
            return
        protected = set(self._pins.values())
        if self._current is not None:
            protected.add(self._current)
        for version in sorted(self._versions):
            if len(self._versions) <= self.keep:
                break
            if version in protected:
                continue
            del self._versions[version]
            del self._sources[version]

    # -- lookup ---------------------------------------------------------
    @property
    def current_version(self) -> Optional[int]:
        """The version unpinned devices resolve to (None pre-publish)."""
        return self._current

    def versions(self) -> List[int]:
        """Sorted retained version numbers."""
        return sorted(self._versions)

    def source(self, version: int) -> str:
        """The ``source`` tag recorded when ``version`` was published."""
        self.require(version)
        return self._sources[version]

    def require(self, version: int) -> int:
        """Validate that ``version`` is retained (raises KeyError)."""
        if version not in self._versions:
            raise KeyError(
                f"model version {version} is not retained "
                f"(retained: {self.versions() or '(none)'})"
            )
        return version

    def get(self, version: int) -> Dict[str, np.ndarray]:
        """A copy of the model arrays of a retained ``version``."""
        self.require(version)
        return {key: value.copy() for key, value in self._versions[version].items()}

    def state_view(self, version: int) -> Dict[str, np.ndarray]:
        """The stored arrays of ``version`` without copying.

        The server's hot activation path; treat the arrays as
        read-only (``Module.load_state_dict`` copies on load).
        """
        self.require(version)
        return self._versions[version]

    # -- device pinning -------------------------------------------------
    def pin(self, device_id: str, version: int) -> None:
        """Pin ``device_id`` to a retained ``version`` (staged rollout)."""
        self.require(version)
        self._pins[str(device_id)] = version

    def unpin(self, device_id: str) -> None:
        """Return ``device_id`` to the current-version track (idempotent)."""
        self._pins.pop(str(device_id), None)

    def pins(self) -> Dict[str, int]:
        """Device id -> pinned version (a copy)."""
        return dict(self._pins)

    def resolve(self, device_id: str) -> int:
        """The version ``device_id`` should be scored against."""
        pinned = self._pins.get(str(device_id))
        if pinned is not None:
            return pinned
        if self._current is None:
            raise RuntimeError(
                "no model version has been published yet: publish one "
                "(ModelRegistry.publish / publish_session) before serving"
            )
        return self._current

    # -- subscriptions --------------------------------------------------
    def on_publish(self, fn: Callable[[int, "ModelRegistry"], None]) -> None:
        """Register ``fn(version, registry)`` to run after every publish."""
        self._on_publish.append(fn)

    def __len__(self) -> int:
        return len(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelRegistry(current={self._current}, "
            f"versions={self.versions()}, pins={self._pins})"
        )
