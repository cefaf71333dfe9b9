"""The embedding/score cache of the serve layer.

Buffer members get re-scored constantly (the replacement policy
re-scores every surviving entry each iteration, and devices re-submit
the same frames), so the scoring service keys computed scores by
*content digest* (:func:`repro.core.scoring.content_hash`) and by model
version — a hit skips the whole forward.

Correctness contract (tested, and enforced by the perf suite's
``--check``):

* a hit returns the **exact float64** stored by the miss that populated
  the entry — cache-hit decisions are bitwise-identical to cache-miss
  decisions for the same (content digest, model version);
* entries are version-qualified, so a stale entry can never answer
  for a newer model; on every model publish
  (:meth:`repro.serve.ModelRegistry.publish`, which fleet broadcasts
  drive) the server drops every entry whose version is no longer
  retained (:meth:`EmbeddingCache.invalidate_stale`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, Optional

__all__ = ["EmbeddingCache"]


class EmbeddingCache:
    """A bounded LRU mapping cache keys to float64 scores.

    Keys are arbitrary hashables; the scoring server
    (:class:`repro.serve.ScoringServer`) uses
    ``(content_digest, model_version)`` tuples.  Single-event-loop /
    single-thread use; no locking.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently *used* entry is
        evicted first.  Must be >= 1.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- the store ------------------------------------------------------
    def get(self, key: Hashable) -> Optional[float]:
        """The cached score, or None; a hit refreshes LRU recency."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, score: float) -> None:
        """Store ``score`` (as exact float64) under ``key``."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = float(score)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        # Membership probe only: no stats, no recency update.
        return key in self._entries

    def clear(self) -> None:
        """Drop every entry (counters survive; see :meth:`stats`)."""
        self.invalidations += len(self._entries)
        self._entries.clear()

    # -- invalidation ---------------------------------------------------
    def invalidate_stale(self, live_versions: Iterable[Any]) -> int:
        """Drop every version-qualified entry not at a live version.

        An entry is version-qualified when its key is a
        ``(digest, version)`` tuple; any other key is always dropped,
        since it names no model version.  Returns the number of entries
        removed.  The server calls this on every model publish, so
        entries of pruned versions can never serve again.
        """
        live = set(live_versions)
        stale = [
            key
            for key in self._entries
            if not (isinstance(key, tuple) and len(key) == 2 and key[1] in live)
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counters since construction (clear/invalidate do not reset)."""
        lookups = self.hits + self.misses
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EmbeddingCache(size={len(self._entries)}, "
            f"capacity={self.capacity}, hits={self.hits}, misses={self.misses})"
        )
