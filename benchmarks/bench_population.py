#!/usr/bin/env python3
"""Nightly population-scale fleet smoke — 1000 devices, K=50, 5 rounds.

Drives :class:`repro.fleet.FleetCoordinator` directly (no single-device
baseline) over a roster far larger than the per-round cast, with the
full ISSUE 9 population stack engaged at once: round-robin client
sampling, a seeded fault plan (10% dropout plus one straggler past the
round deadline), staleness-weighted ``fedavg-async`` aggregation, and
the lossy ``delta-q8`` broadcast codec over the parallel worker pool.

The acceptance bar is wall-clock: the whole run must finish inside
``--max-seconds`` (CI uses 300).  The JSON report additionally records
the per-round cast sizes, dropout/straggler counts, and sampled-device
throughput so the nightly artifact shows *where* time went when the
bar is ever missed, and the coordinator process's peak RSS next to the
number of devices ever sampled, so memory per device is tracked too.  ``--trace-out`` further enables the telemetry
layer (:mod:`repro.obs`) and writes the run's span trace — worker
spans shipped home and filed under per-process lanes — as JSON-lines;
the nightly job uploads it next to the JSON report.

Model/stream sizes are fixed tiny here on purpose — the point of this
smoke is coordinator overhead at population scale (sampling, fault
draws, pending-report bookkeeping, codec channels for 1000 potential
devices), not training throughput, which ``bench_perf_suite.py``
already tracks.

Run from anywhere::

    python benchmarks/bench_population.py --devices 1000 \
        --participants 50 --rounds 5 --workers 4 --max-seconds 300
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from typing import Dict

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.config import bench_seed, default_config
from repro.fleet import DeviceSpec, FleetConfig, FleetCoordinator
from repro.fleet.faults import DeviceFaults, FaultPlan


def population_config(devices: int, participants: int, rounds: int, seed: int):
    """The 1000-device smoke config: tiny model, full population stack."""
    plan = FaultPlan(
        seed=seed,
        default=DeviceFaults(dropout_prob=0.1),
        overrides=((1, DeviceFaults(straggler_delay_s=2.5)),),
    )
    return default_config(seed=seed).with_(
        image_size=10,
        encoder_widths=(8, 16),
        projection_dim=16,
        buffer_size=16,
        total_samples=256,
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


def peak_rss_kib() -> float:
    """This (the coordinator's) process's peak resident set size in KiB:
    ``ru_maxrss``, which macOS reports in bytes and Linux in KiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024 if sys.platform == "darwin" else float(peak)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=1000)
    parser.add_argument("--participants", type=int, default=50)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=300.0,
        help="fail (exit 1) when the run takes longer than this",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_population.json"),
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="also record a span trace of the run (repro.obs) and write "
        "it here as JSON-lines — the nightly job uploads this artifact",
    )
    args = parser.parse_args(argv)
    seed = args.seed if args.seed is not None else bench_seed()

    tracer = None
    if args.trace_out is not None:
        from repro.obs import METRICS_ENV, set_metrics_enabled
        from repro.obs.trace import TRACE_ENV, SpanTracer, set_tracer

        # Env first: pool workers fork later and read these at startup,
        # which is how their spans/metrics ride home with the results.
        os.environ[TRACE_ENV] = "1"
        os.environ[METRICS_ENV] = "1"
        set_metrics_enabled(True)
        tracer = SpanTracer()
        set_tracer(tracer)

    config = population_config(
        args.devices, args.participants, args.rounds, seed
    )
    print(
        f"population smoke: {args.devices} devices, K={args.participants} "
        f"x {args.rounds} rounds, {args.workers} workers, "
        f"delta-q8 / fedavg-async / round-robin, seed={seed}"
    )
    t0 = time.perf_counter()
    coordinator = FleetCoordinator(
        config, workers=args.workers, wire_format="delta-q8"
    )
    setup_s = time.perf_counter() - t0
    result = coordinator.run()
    wall_s = time.perf_counter() - t0

    trained = sum(len(stats.devices) for stats in result.rounds)
    dropped = sum(len(stats.dropped or ()) for stats in result.rounds)
    late = sum(len(stats.late or ()) for stats in result.rounds)
    sampled = len({i for stats in result.rounds for i in stats.participants or ()})
    peak_rss_mb = peak_rss_kib() / 1024
    report: Dict[str, object] = {
        "devices": args.devices,
        "participants": args.participants,
        "rounds": args.rounds,
        "workers": args.workers,
        "seed": seed,
        "wire_format": "delta-q8",
        "aggregator": "fedavg-async",
        "sampler": "round-robin",
        "setup_s": setup_s,
        "wall_s": wall_s,
        "max_seconds": args.max_seconds,
        "trained_device_rounds": trained,
        "dropped_device_rounds": dropped,
        "late_device_rounds": late,
        "sampled_devices_per_s": trained / wall_s,
        "devices_sampled": sampled,
        "peak_rss_mb": peak_rss_mb,
        "final_global_knn_accuracy": result.final_global_knn_accuracy,
        "per_round": [
            {
                "round": stats.round_index,
                "sampled": len(stats.participants or ()),
                "trained": len(stats.devices),
                "dropped": len(stats.dropped or ()),
                "late": len(stats.late or ()),
                "synchronized": stats.synchronized,
            }
            for stats in result.rounds
        ],
        "timings": result.timings,
        "meta": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "unix_time": time.time(),
        },
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    if tracer is not None:
        tracer.to_jsonl(args.trace_out)
        print(f"  trace: {len(tracer.spans)} spans -> {args.trace_out}")
    print(
        f"  {trained} device-rounds trained ({dropped} dropped, {late} "
        f"late) in {wall_s:.1f}s -> {trained / wall_s:.1f} sampled "
        f"devices/s; coordinator peak RSS {peak_rss_mb:.1f} MB over "
        f"{sampled} devices sampled; wrote {args.output}"
    )
    if wall_s > args.max_seconds:
        print(
            f"FAILED: wall {wall_s:.1f}s exceeded the "
            f"{args.max_seconds:.0f}s budget"
        )
        return 1
    print(f"within budget ({wall_s:.1f}s <= {args.max_seconds:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
