"""The ``serve`` experiment: the scoring service under a device stream.

Exercises the whole serve engine (:mod:`repro.serve`) end to end and
reports what production cares about:

1. **cold pass** — ``requests`` synthetic frames from ``devices``
   round-robin device ids stream through a micro-batching
   :class:`~repro.serve.ScoringServer`; halfway through, the trained
   session publishes a *new model version* (the fleet-broadcast path)
   and ``device-0`` is pinned to the old one, so the second half mixes
   versions inside single micro-batches;
2. **warm + repeat passes** — the same stream twice more: the repeat
   pass must be answered entirely from the embedding cache, bitwise
   equal to the warm pass (``warm_identical``);
3. **replay** — the cold pass replays against a *fresh* identically
   configured server (fresh cache, fresh modules) with each request
   pinned to the version it originally resolved to: decisions must be
   bitwise identical (``replay_identical``) — the determinism contract
   the perf suite's ``--check`` enforces;
4. optionally (``transport="tcp"``) — the warm stream is driven again
   through the JSON-lines TCP loopback, one pipelined connection per
   device, and must reproduce the warm scores exactly
   (``tcp_identical``).

The CLI exposes this as ``repro serve --serve-policy NAME --requests N
[--port P]``; admission behavior under overload is a registered policy
(``--queue-depth 1 --serve-policy shed`` makes shedding visible).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.experiments.config import StreamExperimentConfig, default_config
from repro.registry import SERVE_POLICIES
from repro.serve import (
    Decision,
    EmbeddingCache,
    ModelRegistry,
    ScoringServer,
    TcpClient,
    serve_tcp,
)
from repro.session import Session, build_components
from repro.utils.tables import format_table

__all__ = [
    "ServeExperimentResult",
    "run_serve",
    "format_serve",
]


@dataclass
class ServeExperimentResult:
    """The serve experiment's decisions, invariants, and timings."""

    policy: str
    transport: str
    devices: int
    requests: int
    versions: List[int]
    pins: Dict[str, int]
    cold: List[Decision]
    warm: List[Decision]
    repeat: List[Decision]
    replay_identical: bool
    warm_identical: bool
    tcp_identical: Optional[bool]  # None unless transport == "tcp"
    server_stats: Dict[str, Any]
    # wall-clock (excluded from the fingerprint)
    cold_seconds: float = field(default=0.0)
    repeat_seconds: float = field(default=0.0)

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for decision in self.cold + self.warm + self.repeat:
            counts[decision.status] = counts.get(decision.status, 0) + 1
        return counts

    def fingerprint(self) -> Dict[str, Any]:
        """Deterministic payload (timings and latencies excluded)."""
        return {
            "policy": self.policy,
            "devices": self.devices,
            "requests": self.requests,
            "versions": list(self.versions),
            "pins": dict(self.pins),
            "cold": [d.fingerprint() for d in self.cold],
            "warm": [d.fingerprint() for d in self.warm],
            "repeat": [d.fingerprint() for d in self.repeat],
            "replay_identical": self.replay_identical,
            "warm_identical": self.warm_identical,
            "status_counts": self.status_counts(),
        }


async def _drive_inproc(
    server: ScoringServer,
    samples: np.ndarray,
    device_ids: List[str],
    versions: Optional[List[int]] = None,
    deadline_ms: Optional[float] = None,
) -> List[Decision]:
    """Submit one stream concurrently (so the server micro-batches it)."""
    return list(
        await asyncio.gather(
            *(
                server.submit(
                    samples[i],
                    device_id=device_ids[i],
                    model_version=None if versions is None else versions[i],
                    deadline_ms=deadline_ms,
                )
                for i in range(len(device_ids))
            )
        )
    )


async def _drive_tcp(
    server: ScoringServer,
    samples: np.ndarray,
    device_ids: List[str],
    port: int = 0,
) -> List[Decision]:
    """Drive the stream over TCP loopback, one pipelined connection per
    device, and reassemble decisions into stream order."""
    tcp = await serve_tcp(server, port=port)
    host, port = tcp.sockets[0].getsockname()[:2]
    by_device: Dict[str, List[int]] = {}
    for index, device_id in enumerate(device_ids):
        by_device.setdefault(device_id, []).append(index)
    decisions: List[Optional[Decision]] = [None] * len(device_ids)

    async def one_device(device_id: str, rows: List[int]) -> None:
        client = await TcpClient.connect(host, port)
        try:
            answers = await client.score_stream(
                [samples[row] for row in rows], device_id=device_id
            )
        finally:
            await client.close()
        for row, answer in zip(rows, answers):
            decisions[row] = answer

    try:
        await asyncio.gather(
            *(one_device(device_id, rows) for device_id, rows in by_device.items())
        )
    finally:
        tcp.close()
        await tcp.wait_closed()
    assert all(d is not None for d in decisions)
    return decisions  # type: ignore[return-value]


def run_serve(
    config: Optional[StreamExperimentConfig] = None,
    requests: int = 64,
    devices: int = 3,
    policy: Optional[str] = None,
    max_batch: int = 16,
    max_wait_ms: float = 2.0,
    queue_depth: int = 256,
    cache_capacity: int = 4096,
    deadline_ms: Optional[float] = None,
    train_iterations: int = 8,
    transport: str = "inproc",
    port: Optional[int] = None,
) -> ServeExperimentResult:
    """Run the serve experiment (see the module docstring for the plan).

    ``policy`` falls back to ``config.serve``, then ``"block"``.
    ``train_iterations`` is split across the two model publishes (the
    warmed-up model before serving, the mid-stream bump).  ``transport``
    is ``"inproc"`` or ``"tcp"`` (adds the TCP echo pass); passing
    ``port`` implies ``"tcp"`` and binds the loopback listener there
    (default: an ephemeral port).
    """
    if requests < 4:
        raise ValueError(f"requests must be >= 4, got {requests}")
    if devices < 1:
        raise ValueError(f"devices must be >= 1, got {devices}")
    if port is not None:
        transport = "tcp"
    if transport not in ("inproc", "tcp"):
        raise ValueError(f"transport must be 'inproc' or 'tcp', got {transport!r}")
    base = config if config is not None else default_config()
    policy_name = SERVE_POLICIES.get(
        policy if policy is not None else (base.serve or "block")
    ).name

    # Two model versions from one training session: a warmup publish
    # and a mid-stream bump (the fleet-broadcast path uses
    # ModelRegistry.attach instead; the contract is identical).
    session = Session(base)
    session.run(stop_after=max(1, train_iterations // 2))
    models = ModelRegistry()
    v1 = models.publish_session(session, source="warmup")

    comp = build_components(base)  # dedicated serving modules
    traffic_rng = np.random.default_rng(base.seed + 0x5E4E)
    labels = traffic_rng.integers(0, comp.dataset.num_classes, size=requests)
    samples = comp.dataset.sample(labels, traffic_rng)
    device_ids = [f"device-{i % devices}" for i in range(requests)]
    half = requests // 2

    async def _run() -> ServeExperimentResult:
        cache = EmbeddingCache(cache_capacity)
        server = ScoringServer(
            comp.scorer,
            models,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            queue_depth=queue_depth,
            policy=policy_name,
            cache=cache,
        )
        async with server:
            # -- cold pass with a mid-stream version bump -------------
            started = time.perf_counter()
            cold = await _drive_inproc(
                server, samples[:half], device_ids[:half], deadline_ms=deadline_ms
            )
            # The bump continues the warm-up run: a second run() on the
            # same session would start over and retrain the same steps.
            midstream = Session.from_state_dict(session.state_dict())
            midstream.run(stop_after=max(1, train_iterations - train_iterations // 2))
            v2 = models.publish_session(midstream, source="midstream")
            models.pin("device-0", v1)  # canary: keep one device on v1
            cold += await _drive_inproc(
                server, samples[half:], device_ids[half:], deadline_ms=deadline_ms
            )
            cold_seconds = time.perf_counter() - started

            # -- warm + repeat passes ---------------------------------
            warm = await _drive_inproc(server, samples, device_ids)
            started = time.perf_counter()
            repeat = await _drive_inproc(server, samples, device_ids)
            repeat_seconds = time.perf_counter() - started
            warm_identical = all(
                r.cache_hit
                and r.score == w.score
                and r.selected == w.selected
                and r.model_version == w.model_version
                for w, r in zip(warm, repeat)
                if w.status == "ok" and r.status == "ok"
            )

            # -- TCP echo pass (optional) -----------------------------
            tcp_identical: Optional[bool] = None
            if transport == "tcp":
                echoed = await _drive_tcp(
                    server, samples, device_ids, port=port or 0
                )
                tcp_identical = all(
                    e.score == r.score
                    and e.selected == r.selected
                    and e.model_version == r.model_version
                    for e, r in zip(echoed, repeat)
                    if e.status == "ok" and r.status == "ok"
                )
            stats = server.stats()

        # -- replay: fresh server, identical stream + versions --------
        fresh = build_components(base)
        replay_server = ScoringServer(
            fresh.scorer,
            models,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            queue_depth=queue_depth,
            policy=policy_name,
            cache=EmbeddingCache(cache_capacity),
        )
        versions_used = [d.model_version for d in cold]
        async with replay_server:
            replay = await _drive_inproc(
                replay_server,
                samples[:half],
                device_ids[:half],
                versions=versions_used[:half],
                deadline_ms=deadline_ms,
            )
            replay += await _drive_inproc(
                replay_server,
                samples[half:],
                device_ids[half:],
                versions=versions_used[half:],
                deadline_ms=deadline_ms,
            )
        replay_identical = [d.fingerprint() for d in cold] == [
            d.fingerprint() for d in replay
        ]

        return ServeExperimentResult(
            policy=policy_name,
            transport=transport,
            devices=devices,
            requests=requests,
            versions=[v1, v2],
            pins=models.pins(),
            cold=cold,
            warm=warm,
            repeat=repeat,
            replay_identical=replay_identical,
            warm_identical=warm_identical,
            tcp_identical=tcp_identical,
            server_stats=stats,
            cold_seconds=cold_seconds,
            repeat_seconds=repeat_seconds,
        )

    return asyncio.run(_run())


def format_serve(result: ServeExperimentResult) -> str:
    """Render the per-pass table plus the invariant summary."""
    header = ["pass", "ok", "cache hits", "other", "samples/s"]
    rows = []
    for name, decisions, seconds in (
        ("cold", result.cold, result.cold_seconds),
        ("warm", result.warm, None),
        ("repeat", result.repeat, result.repeat_seconds),
    ):
        ok = sum(1 for d in decisions if d.status == "ok")
        hits = sum(1 for d in decisions if d.cache_hit)
        other = len(decisions) - ok
        rate = f"{len(decisions) / seconds:.0f}" if seconds else "-"
        rows.append([name, str(ok), str(hits), str(other), rate])
    cache = result.server_stats.get("cache", {})
    checks = [
        f"replay bitwise-identical: {result.replay_identical}",
        f"warm repeat bitwise-identical: {result.warm_identical}",
    ]
    if result.tcp_identical is not None:
        checks.append(f"tcp echo identical: {result.tcp_identical}")
    summary = (
        f"policy={result.policy} transport={result.transport} "
        f"devices={result.devices} requests={result.requests} "
        f"versions={result.versions} pins={result.pins}\n"
        f"mean batch {result.server_stats.get('mean_batch', 0.0):.2f}, "
        f"forwarded {result.server_stats.get('forwarded', 0)}, "
        f"cache hit rate {cache.get('hit_rate', 0.0):.2f}, "
        f"invalidations {cache.get('invalidations', 0)}\n" + "; ".join(checks)
    )
    return "\n".join([format_table(header, rows), summary])
