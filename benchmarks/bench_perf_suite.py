#!/usr/bin/env python3
"""Performance baseline suite — emits machine-readable ``BENCH_perf.json``.

Times the framework's hot paths so every future PR has a trajectory to
beat (ROADMAP: "fast as the hardware allows"):

1. **scoring** — the batched contrast scorer vs. the per-sample
   reference implementation (``ContrastScorer.score_loop``), on the
   default encoder.
2. **conv** — convolution forward under autograd, forward under
   ``no_grad`` (im2col workspace reuse), and forward+backward; plus the
   workspace hit rate.
3. **stream** — end-to-end stage-1 stream steps of one short
   contrast-scoring :class:`~repro.session.Session` run.
4. **sweep** — a 4-seed multi-seed sweep, serial vs.
   ``workers=4`` through :mod:`repro.experiments.parallel`.
5. **backends** — the ``numpy`` reference vs. the ``fused`` inference
   backend (:mod:`repro.nn.backend`) on batched scoring and on
   end-to-end stream steps, same components and inputs.
6. **fleet** — rounds/sec of a small device fleet
   (:mod:`repro.fleet`), serial vs. ``--workers`` fan-out of the
   per-round device jobs, with the bitwise serial/parallel agreement
   recorded.
7. **serve** — the micro-batching scoring service (:mod:`repro.serve`):
   sustained samples/sec and p99 latency of a concurrent request
   stream, micro-batched vs. request-at-a-time throughput, cache-cold
   vs. cache-warm repeat scoring, and the bitwise replay-determinism
   contract (``decisions_identical``).
8. **wire** — the transport codecs (:mod:`repro.experiments.wire`):
   encode+decode round-trip of a fixed-size synthetic state payload
   under every registered wire format, plus the delta codec's
   steady-state resend with one changed array.
9. **population** — a population-scale fleet round (client sampling,
   seeded fault plan, ``fedavg-async``, ``delta-q8`` transport):
   sampled-device throughput with the serial==parallel fingerprint
   recorded, plus the compressed-delta codecs' steady-state resend
   sizes against the lossless ``delta`` baseline (compression ratios).
10. **obs** — the telemetry layer's own cost (:mod:`repro.obs`): the
    same stream steps with metrics recording enabled vs disabled;
    ``overhead_ratio`` is the per-step price of leaving observability
    on, and must stay within 5%.

The sweep and fleet sections warm the persistent
:class:`~repro.experiments.pool.WorkerPool` before the timed parallel
pass and record the per-stage breakdown
(serialize/transport/compute/merge) the engine measures.

Honors ``REPRO_BENCH_SCALE`` (stream lengths and repeat counts) and
``REPRO_BENCH_SEED``.  Run from anywhere::

    REPRO_BENCH_SCALE=0.1 python benchmarks/bench_perf_suite.py

Writes ``BENCH_perf.json`` into the repository root by default
(``--output`` overrides).  Speedups are wall-clock ratios measured on
this machine; ``meta.cpu_count`` records how many cores the sweep
comparison had to work with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.core.scoring import ContrastScorer
from repro.experiments.config import bench_scale, bench_seed, default_config
from repro.experiments.multi_seed import run_multi_seed
from repro.nn import functional as F
from repro.nn.backend import use_backend
from repro.nn.im2col import default_workspace
from repro.nn.tensor import Tensor, no_grad
from repro.session import Session, build_components

BENCH_VERSION = 7


def _warm_pool(workers: int) -> None:
    """Fork the persistent worker pool outside any timed section, so the
    parallel timings below measure steady-state dispatch (the pool is
    what fleet rounds and repeated sweeps actually reuse), not one-time
    process startup."""
    from repro.experiments.pool import POOL_UNAVAILABLE_ERRORS, get_worker_pool

    try:
        get_worker_pool(workers).warm()
    except POOL_UNAVAILABLE_ERRORS:
        pass


def _time(fn: Callable[[], object], repeats: int, warmup: int = 1) -> Dict[str, float]:
    """Best-of / mean wall seconds of ``fn()`` over ``repeats`` calls."""
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "mean_s": float(np.mean(samples)),
        "best_s": float(min(samples)),
        "repeats": repeats,
    }


def bench_scoring(scale: float, seed: int) -> Dict[str, object]:
    """Batched scorer vs the per-sample reference (executable spec)."""
    config = default_config(seed=seed)
    comp = build_components(config)
    rng = comp.rngs.get("bench-scoring")
    batch = 64
    labels = rng.integers(0, comp.dataset.num_classes, size=batch)
    images = comp.dataset.sample(labels, rng)
    scorer: ContrastScorer = comp.scorer

    repeats = max(1, int(round(2 * scale)))
    loop = _time(lambda: scorer.score_loop(images), repeats=repeats)
    batched = _time(lambda: scorer.score(images), repeats=max(3, 3 * repeats))
    return {
        "batch": batch,
        "loop": loop,
        "batched": batched,
        "speedup": loop["best_s"] / batched["best_s"],
    }


def bench_conv(scale: float, seed: int) -> Dict[str, object]:
    """Conv forward/backward and the no_grad workspace-reuse path."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(32, 12, 12, 12)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(24, 12, 3, 3)).astype(np.float32), requires_grad=True)
    repeats = max(5, int(round(20 * scale)))

    def forward_grad():
        return F.conv2d(x, w, stride=1, padding=1)

    def forward_nograd():
        with no_grad():
            return F.conv2d(x, w, stride=1, padding=1)

    def forward_backward():
        x.zero_grad()
        w.zero_grad()
        F.conv2d(x, w, stride=1, padding=1).sum().backward()

    ws = default_workspace()
    ws.clear()
    fwd_nograd = _time(forward_nograd, repeats=repeats)
    workspace_stats = ws.stats()
    fwd_grad = _time(forward_grad, repeats=repeats)
    fwd_bwd = _time(forward_backward, repeats=repeats)
    return {
        "input": list(x.shape),
        "weight": list(w.shape),
        "forward_grad": fwd_grad,
        "forward_nograd": fwd_nograd,
        "forward_backward": fwd_bwd,
        "workspace": workspace_stats,
    }


def bench_stream(scale: float, seed: int) -> Dict[str, object]:
    """End-to-end stage-1 steps of a short contrast-scoring run."""
    config = default_config(seed=seed).with_(
        total_samples=max(32 * 8, int(round(1024 * scale))),
        probe_epochs=5,
    )
    session = Session.from_config(config, policy="contrast-scoring").with_eval_points(1)
    result = session.run()
    return {
        "iterations": config.iterations,
        "mean_select_s": result.mean_select_seconds,
        "mean_train_s": result.mean_train_seconds,
        "mean_step_s": result.mean_select_seconds + result.mean_train_seconds,
        "relative_batch_time": result.relative_batch_time,
        "wall_s": result.wall_seconds,
    }


def bench_obs(scale: float, seed: int) -> Dict[str, object]:
    """Instrumentation overhead: stream steps with metrics on vs off.

    Same session shape as the stream section; the only difference is
    ``config.obs``.  The registry's hot-path design (instruments
    resolved once outside the loop, a single bool check when disabled)
    must keep the per-step overhead within 5% — ``--check`` enforces
    the ratio, and ``metrics_recorded`` confirms the enabled pass
    really recorded (a silently-off gate would measure nothing).
    """
    from repro.obs import metrics, reset_metrics

    config = default_config(seed=seed).with_(
        total_samples=max(32 * 8, int(round(1024 * scale))),
        probe_epochs=5,
    )
    repeats = max(3, int(round(5 * scale)))

    def mean_step(obs: bool) -> float:
        session = Session.from_config(
            config.with_(obs=obs), policy="contrast-scoring"
        ).with_eval_points(1)
        run = session.run()
        return run.mean_select_seconds + run.mean_train_seconds

    reset_metrics()
    mean_step(False)  # warmup (BLAS, im2col workspaces)
    best = {}
    for obs in (False, True):
        best[obs] = min(mean_step(obs) for _ in range(repeats))
    steps = metrics().value("session.steps", policy="contrast-scoring")
    reset_metrics()
    return {
        "iterations": config.iterations,
        "repeats": repeats,
        "step_off_s": best[False],
        "step_on_s": best[True],
        "overhead_ratio": best[True] / best[False],
        "metrics_recorded": bool(steps),
    }


def bench_sweep(scale: float, seed: int, workers: int = 4) -> Dict[str, object]:
    """4-seed multi-seed sweep: serial vs process-parallel."""
    config = default_config(seed=seed).with_(
        image_size=10,
        encoder_widths=(8, 16),
        projection_dim=16,
        buffer_size=16,
        # floor of 16 iterations so per-run work dominates worker startup
        # even at the CI smoke scale (otherwise the speedup measures fork
        # overhead, not the engine)
        total_samples=max(16 * 16, int(round(512 * scale))),
        probe_train_per_class=10,
        probe_test_per_class=5,
        probe_epochs=5,
    )
    seeds = tuple(range(seed, seed + 4))
    kwargs = dict(policies=("contrast-scoring",), seeds=seeds)

    t0 = time.perf_counter()
    serial = run_multi_seed(config, workers=1, **kwargs)
    serial_s = time.perf_counter() - t0

    _warm_pool(workers)
    t0 = time.perf_counter()
    parallel = run_multi_seed(config, workers=workers, **kwargs)
    parallel_s = time.perf_counter() - t0

    agree = (
        serial.aggregates["contrast-scoring"].accuracies
        == parallel.aggregates["contrast-scoring"].accuracies
    )
    return {
        "seeds": list(seeds),
        "workers": workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "results_identical": bool(agree),
        "timings": parallel.timings,
    }


def bench_backends(scale: float, seed: int) -> Dict[str, object]:
    """numpy vs fused backend: batched scoring and stream-step timing.

    Same components, same inputs; only the execution backend changes.
    ``scoring_max_abs_diff`` records the cross-backend score agreement
    (float32-forward tolerance, not bitwise).
    """
    config = default_config(seed=seed)
    comp = build_components(config)
    rng = comp.rngs.get("bench-backends")
    batch = 64
    labels = rng.integers(0, comp.dataset.num_classes, size=batch)
    images = comp.dataset.sample(labels, rng)
    scorer: ContrastScorer = comp.scorer
    repeats = max(3, int(round(6 * scale)))

    result: Dict[str, object] = {"batch": batch}
    scores: Dict[str, object] = {}
    for name in ("numpy", "fused"):
        with use_backend(name):
            result[f"scoring_{name}"] = _time(
                lambda: scorer.score(images), repeats=repeats
            )
            scores[name] = scorer.score(images)
    result["scoring_speedup"] = (
        result["scoring_numpy"]["best_s"] / result["scoring_fused"]["best_s"]
    )
    result["scoring_max_abs_diff"] = float(
        np.abs(scores["numpy"] - scores["fused"]).max()
    )

    stream_config = config.with_(
        total_samples=max(32 * 6, int(round(768 * scale))), probe_epochs=5
    )
    for name in ("numpy", "fused"):
        run = (
            Session.from_config(stream_config.with_(backend=name))
            .with_eval_points(1)
            .run()
        )
        result[f"stream_{name}"] = {
            "mean_select_s": run.mean_select_seconds,
            "mean_train_s": run.mean_train_seconds,
            "mean_step_s": run.mean_select_seconds + run.mean_train_seconds,
            "final_accuracy": run.final_accuracy,
        }
    result["stream_step_speedup"] = (
        result["stream_numpy"]["mean_step_s"] / result["stream_fused"]["mean_step_s"]
    )
    return result


def bench_fleet(scale: float, seed: int, workers: int = 4) -> Dict[str, object]:
    """Small-fleet rounds/sec: serial vs parallel device fan-out.

    4 devices x 2 rounds of the fleet engine; the per-round device jobs
    cross :func:`repro.experiments.parallel.run_jobs`, so the parallel
    run must be bitwise-identical to the serial one
    (``results_identical``).
    """
    from repro.experiments.fleet import run_fleet

    config = default_config(seed=seed).with_(
        image_size=10,
        encoder_widths=(8, 16),
        projection_dim=16,
        buffer_size=16,
        # floor of 16 iterations per device so local training dominates
        # worker startup at the CI smoke scale (same rationale as the
        # sweep section).
        total_samples=max(16 * 16, int(round(512 * scale))),
        probe_train_per_class=10,
        probe_test_per_class=5,
        probe_epochs=5,
    )
    devices, rounds = 4, 2
    kwargs = dict(devices=devices, rounds=rounds, aggregator="fedavg")

    t0 = time.perf_counter()
    serial = run_fleet(config, workers=1, **kwargs)
    serial_s = time.perf_counter() - t0

    _warm_pool(workers)
    t0 = time.perf_counter()
    parallel = run_fleet(config, workers=workers, **kwargs)
    parallel_s = time.perf_counter() - t0

    # Per-stage totals over every round the engine measured.
    stage_totals: Dict[str, float] = {}
    for entry in parallel.fleet.timings:
        for key in ("serialize_s", "transport_s", "compute_s", "merge_s", "wall_s"):
            stage_totals[key] = stage_totals.get(key, 0.0) + entry.get(key, 0.0)
    return {
        "devices": devices,
        "rounds": rounds,
        "workers": workers,
        "wire_format": parallel.fleet.wire_format,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "serial_rounds_per_s": rounds / serial_s,
        "parallel_rounds_per_s": rounds / parallel_s,
        "speedup": serial_s / parallel_s,
        "results_identical": serial.fingerprint() == parallel.fingerprint(),
        "timings": stage_totals,
    }


def bench_serve(scale: float, seed: int) -> Dict[str, object]:
    """Micro-batching scoring service vs request-at-a-time serving.

    Two uncached servers that differ only in ``max_batch`` score the
    same request stream: one micro-batches a concurrent stream
    (``score_stream``), the other handles it request-at-a-time
    (``score_sequential``, every forward a batch of one).  Both get a
    warmup pass and best-of timing, so ``batched_speedup`` is the
    batching benefit alone.  A third, cached server measures the
    cache-cold pass vs the fully warm repeat (``warm_speedup``), and
    re-running its stream on a freshly built server must reproduce
    every decision fingerprint bitwise (``decisions_identical``).
    """
    import asyncio

    from repro.fleet.coordinator import MODEL_PREFIXES
    from repro.serve import EmbeddingCache, InprocClient, ModelRegistry, ScoringServer

    config = default_config(seed=seed)
    comp = build_components(config)
    rng = comp.rngs.get("bench-serve")
    requests = max(64, int(round(256 * scale)))
    max_batch = 32
    repeats = 3
    labels = rng.integers(0, comp.dataset.num_classes, size=requests)
    images = comp.dataset.sample(labels, rng)
    samples = list(images)

    models = ModelRegistry()
    state = {}
    for prefix, module in zip(MODEL_PREFIXES, (comp.scorer.encoder, comp.scorer.projector)):
        for key, value in module.state_dict().items():
            state[prefix + key] = value
    models.publish(state, source="bench")

    def make_server(**overrides):
        fresh = build_components(config)
        kwargs = dict(
            max_batch=max_batch,
            max_wait_ms=0.0,  # drain opportunistically; no straggler wait
            queue_depth=requests,
            cache=None,
        )
        kwargs.update(overrides)
        return ScoringServer(fresh.scorer, models, **kwargs)

    def best_of(server, method_name):
        """Warmup pass + best-of-``repeats`` wall time of one stream pass."""

        async def drive():
            async with server:
                client = InprocClient(server)
                method = getattr(client, method_name)
                await method(samples)  # warmup (BLAS, im2col workspaces)
                best = None
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    await method(samples)
                    elapsed = time.perf_counter() - t0
                    best = elapsed if best is None else min(best, elapsed)
                return best

        return asyncio.run(drive())

    unbatched_s = best_of(make_server(max_batch=1), "score_sequential")
    batched_s = best_of(make_server(), "score_stream")

    # cache-cold pass vs the fully warm repeat, on a cached server
    server = make_server(cache=EmbeddingCache(2 * requests))

    async def cold_and_warm():
        async with server:
            client = InprocClient(server)
            t0 = time.perf_counter()
            cold = await client.score_stream(samples)
            cold_s = time.perf_counter() - t0
            warm, warm_s = None, None
            for _ in range(repeats):  # repeats never invalidate the cache
                t0 = time.perf_counter()
                warm = await client.score_stream(samples)
                elapsed = time.perf_counter() - t0
                warm_s = elapsed if warm_s is None else min(warm_s, elapsed)
            return cold, cold_s, warm, warm_s

    cold, cold_s, warm, warm_s = asyncio.run(cold_and_warm())
    stats = server.stats()
    latencies = np.asarray([d.latency_ms for d in cold])

    # determinism: the identical stream on a freshly built cached server
    # must reproduce every decision bitwise (scores, verdicts, versions)
    async def replay_stream(replay_server):
        async with replay_server:
            return await InprocClient(replay_server).score_stream(samples)

    replay = asyncio.run(replay_stream(make_server(cache=EmbeddingCache(2 * requests))))
    decisions_identical = [d.fingerprint() for d in cold] == [
        d.fingerprint() for d in replay
    ]

    return {
        "requests": requests,
        "max_batch": max_batch,
        "unbatched_s": unbatched_s,
        "unbatched_samples_per_s": requests / unbatched_s,
        "batched_s": batched_s,
        "batched_samples_per_s": requests / batched_s,
        "batched_speedup": unbatched_s / batched_s,
        "p50_ms": float(np.percentile(latencies, 50)),
        "p99_ms": float(np.percentile(latencies, 99)),
        "mean_batch": stats["mean_batch"],
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_samples_per_s": requests / warm_s,
        "warm_speedup": cold_s / warm_s,
        "warm_all_hits": all(d.cache_hit for d in warm),
        "decisions_identical": decisions_identical,
    }


def bench_wire(scale: float, seed: int) -> Dict[str, object]:
    """Transport codecs on a fixed-size synthetic state payload.

    Encode+decode round-trip of a multi-megabyte float32/float64/int64
    array dict under every registered wire format (each measured on a
    fresh codec instance), plus the delta codec's steady-state resend —
    one changed array out of the set — which is its actual fleet-round
    workload.  ``shm_vs_json_speedup`` is the zero-copy win the ``shm``
    path must keep delivering over the base64-JSON reference.
    """
    from repro.experiments.wire import create_wire_format, shm_available
    from repro.registry import WIRE_FORMATS

    rng = np.random.default_rng(seed)
    arrays = 8
    # ~8 MB total at scale 1 (floor 1 MB so the smoke scale still
    # measures copies, not per-call overhead)
    elems = max(1 << 15, int(round((1 << 18) * scale)))
    state = {
        f"layer{i}.weight": rng.normal(size=elems).astype(
            np.float32 if i % 4 else np.float64
        )
        for i in range(arrays)
    }
    state["step"] = np.asarray(12345, dtype=np.int64)
    payload_bytes = int(sum(a.nbytes for a in state.values()))
    repeats = max(3, int(round(6 * scale)))

    result: Dict[str, object] = {
        "arrays": len(state),
        "payload_bytes": payload_bytes,
        "shm_available": shm_available(),
    }
    for name in sorted(WIRE_FORMATS.names()):
        if name == "shm" and not shm_available():
            continue

        def round_trip(fmt_name=name):
            codec = create_wire_format(fmt_name)
            decoded = codec.decode(codec.encode(state, channel="bench"))
            return decoded

        result[name] = _time(round_trip, repeats=repeats)

    # Delta steady state: the sender has already broadcast once and only
    # one array changed — the per-round shape of a converging fleet.
    codec = create_wire_format("delta")
    codec.decode(codec.encode(state, channel="bench"), channel="bench")
    changed = dict(state)

    def delta_resend():
        # mutate exactly one array each pass so every resend genuinely
        # ships one changed payload (not a zero-delta no-op)
        changed["layer0.weight"] = changed["layer0.weight"] + 1.0
        payload = codec.encode(changed, channel="bench")
        codec.decode(payload, channel="bench")

    result["delta_resend"] = _time(delta_resend, repeats=repeats)
    if "shm" in result:
        result["shm_vs_json_speedup"] = (
            result["json-b64"]["best_s"] / result["shm"]["best_s"]
        )
    return result


def bench_population(scale: float, seed: int, workers: int = 4) -> Dict[str, object]:
    """Population-scale fleet round plus compressed-codec resend sizes.

    A roster far larger than the per-round cast (client sampling),
    seeded dropout/straggler chaos, staleness-weighted aggregation, and
    the ``delta-q8`` transport — the ISSUE 9 configuration.  Throughput
    is ``sampled_devices_per_s`` (device-rounds actually trained per
    wall second); ``results_identical`` records the serial==parallel
    fingerprint agreement under the lossy codec (both ends run the same
    quantization arithmetic, so it must hold).

    The codec half measures the steady-state incremental resend — the
    per-round broadcast of a converging fleet — through each delta
    codec over a ``json-b64`` inner (JSON-measurable bytes), reporting
    compression ratios against the lossless ``delta`` send.
    """
    from repro.fleet import DeviceSpec, FleetConfig, FleetCoordinator
    from repro.fleet.faults import DeviceFaults, FaultPlan
    from repro.registry import WIRE_FORMATS

    devices = max(40, int(round(400 * scale)))
    participants = max(4, devices // 10)
    rounds = 2
    plan = FaultPlan(
        seed=seed,
        default=DeviceFaults(dropout_prob=0.1),
        overrides=((1, DeviceFaults(straggler_delay_s=2.5)),),
    )
    config = default_config(seed=seed).with_(
        image_size=10,
        encoder_widths=(8, 16),
        projection_dim=16,
        buffer_size=16,
        total_samples=max(16 * 16, int(round(512 * scale))),
        probe_train_per_class=10,
        probe_test_per_class=5,
        probe_epochs=5,
        fleet=FleetConfig(
            devices=tuple(DeviceSpec() for _ in range(devices)),
            rounds=rounds,
            participants=participants,
            sampler="round-robin",
            round_deadline_s=1.0,
            fault_plan=plan,
        ),
        aggregator="fedavg-async",
    )

    t0 = time.perf_counter()
    serial = FleetCoordinator(config, workers=1, wire_format="delta-q8").run()
    serial_s = time.perf_counter() - t0

    _warm_pool(workers)
    t0 = time.perf_counter()
    parallel = FleetCoordinator(
        config, workers=workers, wire_format="delta-q8"
    ).run()
    parallel_s = time.perf_counter() - t0

    trained = sum(len(stats.devices) for stats in parallel.rounds)
    result: Dict[str, object] = {
        "devices": devices,
        "participants": participants,
        "rounds": rounds,
        "workers": workers,
        "wire_format": "delta-q8",
        "trained_device_rounds": trained,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "sampled_devices_per_s": trained / parallel_s,
        "speedup": serial_s / parallel_s,
        "results_identical": serial.fingerprint() == parallel.fingerprint(),
    }

    # Compressed-codec resend sizes: same synthetic model state through
    # delta and delta-q8 (json-b64 inner so the payload is JSON-measurable),
    # first send establishing the base, second send the steady-state
    # incremental broadcast whose bytes a fleet round actually pays.
    rng = np.random.default_rng(seed)
    base = {
        f"encoder/layer{i}.weight": rng.normal(size=1 << 14).astype(np.float32)
        for i in range(4)
    }
    bumped = {
        key: (value + rng.normal(size=value.shape).astype(np.float32) * 0.01)
        for key, value in base.items()
    }
    sizes: Dict[str, int] = {}
    for name in ("delta", "delta-q8"):
        codec = WIRE_FORMATS.create(name, inner="json-b64")
        codec.decode(codec.encode(base, channel="bench"), channel="bench")
        payload = codec.encode(bumped, channel="bench")
        sizes[name] = len(json.dumps(payload))
        codec.decode(payload, channel="bench")
    result["resend_bytes"] = sizes
    result["q8_compression_ratio"] = sizes["delta"] / sizes["delta-q8"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_perf.json"),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="parallel sweep worker count"
    )
    parser.add_argument(
        "--skip-sweep",
        action="store_true",
        help="skip the (slowest) serial-vs-parallel sweep section",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when a speedup regresses below its floor: "
        "batched scoring >= 1.3x, fused-backend scoring >= 1.5x over "
        "numpy, serve micro-batching >= 2x over unbatched with a >= 5x "
        "warm cache and bitwise-identical replay decisions, sweep and "
        "fleet results identical to serial, shm codec >= 1.5x over "
        "json-b64 on the synthetic payload, on machines with >= 2 "
        "logical CPUs sweep and fleet speedups >= 1.2x over serial, and "
        "on machines with >= 4 logical CPUs sweep speedup >= 1.5x "
        "(headroom under the 2x multi-core target, since logical CPUs "
        "overstate physical cores), population fleet serial==parallel "
        "bitwise under delta-q8 with >= 1 sampled device-round/s, and "
        "delta-q8 resends >= 3x smaller than the lossless delta resend, "
        "and metrics-enabled stream steps <= 5% slower than disabled",
    )
    args = parser.parse_args(argv)

    scale = bench_scale()
    seed = bench_seed()
    report: Dict[str, object] = {
        "version": BENCH_VERSION,
        "meta": {
            "scale": scale,
            "seed": seed,
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "unix_time": time.time(),
        },
    }

    print(f"perf suite: scale={scale} seed={seed} cpus={os.cpu_count()}")
    t0 = time.perf_counter()
    report["scoring"] = bench_scoring(scale, seed)
    print(
        "  scoring: batched {:.4f}s vs loop {:.4f}s -> {:.2f}x".format(
            report["scoring"]["batched"]["best_s"],
            report["scoring"]["loop"]["best_s"],
            report["scoring"]["speedup"],
        )
    )
    report["conv"] = bench_conv(scale, seed)
    print(
        "  conv: fwd(grad) {:.5f}s  fwd(no_grad) {:.5f}s  fwd+bwd {:.5f}s  "
        "workspace hit rate {:.0%}".format(
            report["conv"]["forward_grad"]["best_s"],
            report["conv"]["forward_nograd"]["best_s"],
            report["conv"]["forward_backward"]["best_s"],
            report["conv"]["workspace"]["hit_rate"],
        )
    )
    report["stream"] = bench_stream(scale, seed)
    print(
        "  stream: {:.4f}s/step over {} iterations".format(
            report["stream"]["mean_step_s"], report["stream"]["iterations"]
        )
    )
    report["obs"] = bench_obs(scale, seed)
    print(
        "  obs: step {:.4f}s off vs {:.4f}s on -> {:.3f}x overhead "
        "(recorded={})".format(
            report["obs"]["step_off_s"],
            report["obs"]["step_on_s"],
            report["obs"]["overhead_ratio"],
            report["obs"]["metrics_recorded"],
        )
    )
    report["backends"] = bench_backends(scale, seed)
    print(
        "  backends: scoring numpy {:.4f}s vs fused {:.4f}s -> {:.2f}x; "
        "stream step {:.4f}s vs {:.4f}s -> {:.2f}x".format(
            report["backends"]["scoring_numpy"]["best_s"],
            report["backends"]["scoring_fused"]["best_s"],
            report["backends"]["scoring_speedup"],
            report["backends"]["stream_numpy"]["mean_step_s"],
            report["backends"]["stream_fused"]["mean_step_s"],
            report["backends"]["stream_step_speedup"],
        )
    )
    report["wire"] = bench_wire(scale, seed)
    wire = report["wire"]
    shm_note = (
        "shm {:.4f}s -> {:.2f}x over json-b64; ".format(
            wire["shm"]["best_s"], wire["shm_vs_json_speedup"]
        )
        if "shm" in wire
        else "shm unavailable; "
    )
    print(
        "  wire: {:.1f} MB payload, json-b64 {:.4f}s; {}delta resend "
        "{:.4f}s".format(
            wire["payload_bytes"] / 1e6,
            wire["json-b64"]["best_s"],
            shm_note,
            wire["delta_resend"]["best_s"],
        )
    )
    report["serve"] = bench_serve(scale, seed)
    print(
        "  serve: batched {:.0f} samples/s vs unbatched {:.0f} -> {:.2f}x; "
        "warm cache {:.2f}x; p99 {:.1f}ms (identical={})".format(
            report["serve"]["batched_samples_per_s"],
            report["serve"]["unbatched_samples_per_s"],
            report["serve"]["batched_speedup"],
            report["serve"]["warm_speedup"],
            report["serve"]["p99_ms"],
            report["serve"]["decisions_identical"],
        )
    )
    if not args.skip_sweep:
        report["sweep"] = bench_sweep(scale, seed, workers=args.workers)
        print(
            "  sweep: serial {:.1f}s vs {} workers {:.1f}s -> {:.2f}x "
            "(identical={})".format(
                report["sweep"]["serial_s"],
                report["sweep"]["workers"],
                report["sweep"]["parallel_s"],
                report["sweep"]["speedup"],
                report["sweep"]["results_identical"],
            )
        )
        timings = report["sweep"].get("timings")
        if timings:
            print(
                "    stages: serialize {:.3f}s transport {:.3f}s compute "
                "{:.3f}s merge {:.3f}s".format(
                    timings.get("serialize_s", 0.0),
                    timings.get("transport_s", 0.0),
                    timings.get("compute_s", 0.0),
                    timings.get("merge_s", 0.0),
                )
            )
        report["fleet"] = bench_fleet(scale, seed, workers=args.workers)
        print(
            "  fleet: {} devices x {} rounds, serial {:.2f} rounds/s vs "
            "{} workers {:.2f} rounds/s -> {:.2f}x (identical={})".format(
                report["fleet"]["devices"],
                report["fleet"]["rounds"],
                report["fleet"]["serial_rounds_per_s"],
                report["fleet"]["workers"],
                report["fleet"]["parallel_rounds_per_s"],
                report["fleet"]["speedup"],
                report["fleet"]["results_identical"],
            )
        )
        timings = report["fleet"].get("timings")
        if timings:
            print(
                "    stages (wire={}): serialize {:.3f}s transport {:.3f}s "
                "compute {:.3f}s merge {:.3f}s".format(
                    report["fleet"]["wire_format"],
                    timings.get("serialize_s", 0.0),
                    timings.get("transport_s", 0.0),
                    timings.get("compute_s", 0.0),
                    timings.get("merge_s", 0.0),
                )
            )
        report["population"] = bench_population(scale, seed, workers=args.workers)
        print(
            "  population: {} devices, K={} x {} rounds -> {:.1f} sampled "
            "devices/s (identical={}); delta-q8 resend ratio {:.2f}x "
            "over delta".format(
                report["population"]["devices"],
                report["population"]["participants"],
                report["population"]["rounds"],
                report["population"]["sampled_devices_per_s"],
                report["population"]["results_identical"],
                report["population"]["q8_compression_ratio"],
            )
        )
    report["total_wall_s"] = time.perf_counter() - t0

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        failures = _check_thresholds(report)
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if failures:
            return 1
        print("checks passed")
    return 0


def _check_thresholds(report: Dict[str, object]) -> List[str]:
    """Speedup floors the baseline must keep clearing (``--check``)."""
    failures: List[str] = []
    scoring_speedup = report["scoring"]["speedup"]
    if scoring_speedup < 1.3:
        failures.append(
            f"batched scoring speedup {scoring_speedup:.2f}x < 1.3x floor"
        )
    backends = report.get("backends")
    if backends is not None:
        # Single-process compute-bound comparison: CPU-count independent,
        # so the floor is enforced everywhere (ISSUE 3 acceptance bar).
        if backends["scoring_speedup"] < 1.5:
            failures.append(
                "fused-backend scoring speedup "
                f"{backends['scoring_speedup']:.2f}x < 1.5x floor over numpy"
            )
        if backends["scoring_max_abs_diff"] > 1e-4:
            failures.append(
                "numpy/fused score disagreement "
                f"{backends['scoring_max_abs_diff']:.2e} > 1e-4 tolerance"
            )
    cpus = report["meta"]["cpu_count"] or 1
    sweep = report.get("sweep")
    if sweep is not None:
        if not sweep["results_identical"]:
            failures.append("parallel sweep results differ from serial run")
        # os.cpu_count() reports *logical* CPUs; the achievable speedup is
        # bounded by physical cores (often half that on hyperthreaded CI
        # runners), so the enforced floor leaves headroom below the 2x
        # target the JSON reports.
        if cpus >= 4 and sweep["speedup"] < 1.5:
            failures.append(
                f"sweep speedup {sweep['speedup']:.2f}x < 1.5x floor "
                f"on a machine with {cpus} logical CPUs"
            )
        elif cpus >= 2 and sweep["speedup"] < 1.2:
            failures.append(
                f"sweep speedup {sweep['speedup']:.2f}x < 1.2x floor "
                f"on a machine with {cpus} logical CPUs (parallel must "
                "beat serial whenever a second core exists)"
            )
        elif cpus < 2:
            print(
                f"  note: sweep speedup floor not enforced on {cpus} "
                "logical CPU(s) (process parallelism is bounded by "
                "physical cores)"
            )
    fleet = report.get("fleet")
    if fleet is not None:
        # Bitwise contract, CPU-count independent.
        if not fleet["results_identical"]:
            failures.append("parallel fleet results differ from serial run")
        if cpus >= 2 and fleet["speedup"] < 1.2:
            failures.append(
                f"fleet speedup {fleet['speedup']:.2f}x < 1.2x floor "
                f"on a machine with {cpus} logical CPUs (warm-pool device "
                "fan-out must beat serial whenever a second core exists)"
            )
        elif cpus < 2:
            print(
                f"  note: fleet speedup floor not enforced on {cpus} "
                "logical CPU(s)"
            )
    population = report.get("population")
    if population is not None:
        # Bitwise contract, CPU-count independent: both ends of delta-q8
        # run the same quantization arithmetic.
        if not population["results_identical"]:
            failures.append(
                "population fleet (delta-q8) parallel results differ from serial"
            )
        # Generous absolute floor: a sampled population round must never
        # degrade to training slower than 1 device-round per second at
        # the smoke scale (catches accidental O(N) work per skipped
        # device creeping into the coordinator).
        if population["sampled_devices_per_s"] < 1.0:
            failures.append(
                "population throughput "
                f"{population['sampled_devices_per_s']:.2f} sampled "
                "devices/s < 1.0 floor"
            )
        # Codec-only byte counts, machine-independent.
        if population["q8_compression_ratio"] < 3.0:
            failures.append(
                "delta-q8 resend compression "
                f"{population['q8_compression_ratio']:.2f}x < 3x floor over delta"
            )
    obs = report.get("obs")
    if obs is not None:
        # Single-process comparison, CPU-count independent: leaving the
        # telemetry layer on must never cost more than 5% per step.
        if obs["overhead_ratio"] > 1.05:
            failures.append(
                "metrics-enabled stream step overhead "
                f"{obs['overhead_ratio']:.3f}x > 1.05x floor over disabled"
            )
        if not obs["metrics_recorded"]:
            failures.append(
                "obs bench recorded no session metrics with obs enabled "
                "(the overhead comparison measured nothing)"
            )
    wire = report.get("wire")
    if wire is not None and "shm_vs_json_speedup" in wire:
        # Codec-only comparison, CPU-count independent: the zero-copy
        # shared-memory path must beat base64-JSON on a multi-MB payload.
        if wire["shm_vs_json_speedup"] < 1.5:
            failures.append(
                "shm codec round-trip "
                f"{wire['shm_vs_json_speedup']:.2f}x < 1.5x floor over json-b64"
            )
    serve = report.get("serve")
    if serve is not None:
        # Single-process comparisons, CPU-count independent (ISSUE 6
        # acceptance bars).
        if serve["batched_speedup"] < 2.0:
            failures.append(
                "serve micro-batched throughput "
                f"{serve['batched_speedup']:.2f}x < 2x floor over unbatched"
            )
        if serve["warm_speedup"] < 5.0:
            failures.append(
                "serve warm-cache repeat scoring "
                f"{serve['warm_speedup']:.2f}x < 5x floor over cold"
            )
        if not serve["decisions_identical"]:
            failures.append(
                "serve decisions not bitwise-identical on a fresh-server replay"
            )
    return failures


if __name__ == "__main__":
    sys.exit(main())
