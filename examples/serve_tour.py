"""A tour of the serve engine (docs/SERVE.md).

Stands up one in-process micro-batching scoring server over a briefly
trained model and drives it with three devices' worth of traffic:

1. publish version 1 and score a first wave (cache-cold, micro-batched);
2. train a little more and publish version 2 **mid-stream**, pinning
   one canary device to v1 while the others follow the current pointer;
3. score a second wave split across model versions, then repeat the
   whole stream to show every decision answering from the cache — and
   that cached decisions are bitwise-identical to the cold ones;
4. exercise the admission policies (`shed` at the door of a full
   queue, `degrade` falling back to cached scores).

Executed in CI exactly as committed, so it doubles as living
documentation: if the serve surface changes, this file has to change
with it.

Run it yourself::

    PYTHONPATH=src python examples/serve_tour.py
"""

import asyncio

import numpy as np

from repro.experiments.config import StreamExperimentConfig
from repro.serve import EmbeddingCache, ModelRegistry, ScoringServer
from repro.session import Session, build_components

# One tiny operating point: small images, short streams — CI-friendly
# runtime with every moving part still exercised.
CONFIG = StreamExperimentConfig(
    dataset="cifar10",
    image_size=8,
    stc=4,
    total_samples=64,
    buffer_size=8,
    encoder_widths=(8, 16),
    projection_dim=8,
    probe_train_per_class=2,
    probe_test_per_class=2,
    probe_epochs=2,
    seed=0,
)

DEVICES = ("device-0", "device-1", "device-2")


def traffic(count: int, offset: int = 0) -> list:
    """``count`` stream samples, deterministic in (seed, offset)."""
    comp = build_components(CONFIG)
    rng = np.random.default_rng(CONFIG.seed + offset)
    labels = rng.integers(0, comp.dataset.num_classes, size=count)
    return list(comp.dataset.sample(labels, rng))


def summarize(tag: str, decisions: list) -> None:
    hits = sum(d.cache_hit for d in decisions)
    versions = sorted({d.model_version for d in decisions})
    selected = sum(d.selected for d in decisions)
    print(
        f"  {tag:12s} {len(decisions)} decisions, versions={versions}, "
        f"selected={selected}, cache hits={hits}"
    )


async def tour() -> None:
    # -- a trained model, published as version 1 ----------------------
    session = Session(CONFIG)
    session.run(stop_after=2)
    models = ModelRegistry()
    v1 = models.publish_session(session, source="warmup")

    server = ScoringServer(
        build_components(CONFIG).scorer,
        models,
        max_batch=8,
        max_wait_ms=1.0,
        cache=EmbeddingCache(),
    )
    samples = traffic(24)

    async with server:
        print("== wave 1: cache-cold, everyone on version", v1, "==")
        cold = []
        for i, device in enumerate(DEVICES):
            cold += await server.submit_many(samples[i * 8 : (i + 1) * 8], device_id=device)
        summarize("cold", cold)

        # -- a version bump lands mid-stream --------------------------
        # (two more steps of the same run: resume from its state, since
        # a second run() on the session would start over)
        midstream = Session.from_state_dict(session.state_dict())
        midstream.run(stop_after=2)
        v2 = models.publish_session(midstream, source="midstream")
        models.pin("device-0", v1)  # canary stays on the old model
        print(f"== published version {v2}; device-0 pinned to v{v1} ==")

        wave2 = []
        for i, device in enumerate(DEVICES):
            wave2 += await server.submit_many(samples[i * 8 : (i + 1) * 8], device_id=device)
        summarize("wave 2", wave2)

        # -- the same stream again: answered from the cache -----------
        repeat = []
        for i, device in enumerate(DEVICES):
            repeat += await server.submit_many(samples[i * 8 : (i + 1) * 8], device_id=device)
        summarize("repeat", repeat)
        identical = all(
            r.cache_hit
            and r.score == w.score  # bitwise: the cache stores exact float64
            and r.selected == w.selected
            and r.model_version == w.model_version
            for r, w in zip(repeat, wave2)
        )
        print(f"  repeat scores bitwise-identical to wave 2: {identical}")
        assert identical

        stats = server.stats()
        print(
            f"  server: {stats['batches']} batches, mean batch "
            f"{stats['mean_batch']:.1f}, forwarded {stats['forwarded']} rows, "
            f"cache hit rate {stats['cache']['hit_rate']:.0%}"
        )

    # -- admission policies under overload ----------------------------
    print("== admission: queue_depth=2 under a 12-request burst ==")
    burst = traffic(12, offset=99)
    for policy in ("shed", "degrade"):
        overloaded = ScoringServer(
            build_components(CONFIG).scorer,
            models,
            max_batch=2,
            max_wait_ms=0.0,
            queue_depth=2,
            policy=policy,
            cache=EmbeddingCache(),
        )
        async with overloaded:
            decisions = await overloaded.submit_many(burst)
        by_status: dict = {}
        for d in decisions:
            by_status[d.status] = by_status.get(d.status, 0) + 1
        print(f"  {policy:8s} -> {dict(sorted(by_status.items()))}")


if __name__ == "__main__":
    asyncio.run(tour())
