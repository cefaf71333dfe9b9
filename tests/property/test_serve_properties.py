"""Property-based tests for the serve layer's two core contracts:

1. a cache-hit decision is **bitwise identical** to the cache-miss
   decision that populated it, for the same (content hash, model
   version) — scores, selection verdicts, and versions all match;
2. a model publish (what every fleet broadcast triggers through
   ``ModelRegistry.attach``) invalidates **every** stale cache entry —
   no entry at a non-retained version ever survives a publish.
"""

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import content_hash
from repro.serve import EmbeddingCache, ModelRegistry, ScoringServer

SETTINGS = dict(max_examples=25, deadline=None)


class _StubModule:
    def load_state_dict(self, state):
        self.loaded = dict(state)


class _StubScorer:
    """Deterministic, model-free scorer: score = mean pixel value."""

    def __init__(self):
        self.encoder = _StubModule()
        self.projector = _StubModule()

    def score(self, images):
        return np.clip(
            images.astype(np.float64).mean(axis=(1, 2, 3)), 0.0, 2.0
        )


def _model_state(value=0.0):
    return {"encoder/w": np.full((2,), value), "projector/w": np.full((2,), value)}


def _server(cache=None, **overrides):
    models = ModelRegistry()
    models.publish(_model_state())
    kwargs = dict(max_batch=8, max_wait_ms=0.0, cache=cache)
    kwargs.update(overrides)
    return ScoringServer(_StubScorer(), models, **kwargs)


images_strategy = st.lists(
    st.lists(st.floats(0.0, 1.0, width=32), min_size=4, max_size=4),
    min_size=1,
    max_size=12,
).map(
    lambda rows: np.asarray(rows, dtype=np.float32).reshape(len(rows), 1, 2, 2)
)


class TestCacheHitBitwiseIdentity:
    @given(images=images_strategy, threshold=st.floats(0.0, 2.0))
    @settings(**SETTINGS)
    def test_hit_decision_bitwise_equals_populating_miss(self, images, threshold):
        server = _server(cache=EmbeddingCache(), threshold=threshold)

        async def run():
            async with server:
                cold = await server.submit_many(list(images))
                warm = await server.submit_many(list(images))
                return cold, warm

        cold, warm = asyncio.run(run())
        digests = content_hash(images)
        seen = {}
        for digest, c, w in zip(digests, cold, warm):
            assert w.cache_hit
            # bitwise score identity, same verdict, same version
            assert np.float64(c.score).tobytes() == np.float64(w.score).tobytes()
            assert c.selected == w.selected == (c.score >= threshold)
            assert c.model_version == w.model_version
            # equal content -> equal decision, within and across passes
            if digest in seen:
                assert seen[digest].score == c.score
            seen[digest] = c

    @given(images=images_strategy)
    @settings(**SETTINGS)
    def test_cached_scores_equal_uncached_server(self, images):
        cached_server = _server(cache=EmbeddingCache())
        plain_server = _server(cache=None)

        async def run(server):
            async with server:
                first = await server.submit_many(list(images))
                second = await server.submit_many(list(images))
                return first, second

        c1, c2 = asyncio.run(run(cached_server))
        p1, _ = asyncio.run(run(plain_server))
        for a, b, p in zip(c1, c2, p1):
            assert a.score == b.score == p.score


class TestBroadcastInvalidation:
    @given(
        publishes=st.integers(min_value=1, max_value=5),
        keep=st.integers(min_value=1, max_value=3),
        extra_bare_keys=st.integers(min_value=0, max_value=3),
    )
    @settings(**SETTINGS)
    def test_no_stale_entry_survives_any_publish(
        self, publishes, keep, extra_bare_keys
    ):
        models = ModelRegistry(keep=keep)
        cache = EmbeddingCache()
        models.on_publish(lambda v, m: cache.invalidate_stale(m.versions()))
        for round_index in range(publishes):
            version = models.publish(_model_state(float(round_index)))
            # entries accumulate at the freshly published version...
            cache.put((f"digest-{round_index}", version), float(round_index))
            # ...plus version-free strays (the in-library hook's keys)
            for j in range(extra_bare_keys):
                cache.put(f"bare-{round_index}-{j}", 0.0)
            live = set(models.versions())
            for key in list(cache._entries):
                if isinstance(key, tuple):
                    assert key[1] in live, (
                        f"stale entry {key!r} survived publish {version} "
                        f"(live: {sorted(live)})"
                    )
                else:
                    # bare keys inserted after this publish linger only
                    # until the next one drops them
                    assert key.startswith(f"bare-{round_index}-")

    def test_fleet_shaped_publish_chain(self):
        # The exact wiring ScoringServer uses, driven manually: each
        # "broadcast" publishes, publish prunes, pruning invalidates.
        models = ModelRegistry(keep=1)
        cache = EmbeddingCache()
        server = ScoringServer(_StubScorer(), models, cache=cache)
        models.publish(_model_state(1.0))
        cache.put(("d", 1), 0.5)
        models.publish(_model_state(2.0))  # v1 pruned -> ("d", 1) stale
        assert ("d", 1) not in cache
        assert server.models.versions() == [2]
