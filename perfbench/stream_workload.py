"""``stream``: the paper's select+train loop on one device.

Default config (cifar10-synthetic, 32-image buffer, encoder widths
12/24/48, temporal scenario at STC 64) run as a ``contrast-scoring``
Session with lazy scoring off on the ``numpy`` backend, ``probe_epochs=5``
and one probe at the end.  Whole 2048-sample sessions (64 steps) run
until the next one would overrun ``seconds``, cycling through three
streams derived from the seed (A, B, C, A, ...).  At least four run, so
stream A always repeats: sessions of one stream must produce the same
fingerprint (loss trace plus final kNN accuracy).  The accuracy metric
is the mean final kNN accuracy of the three streams.

An operation is one stream step.  It fails on an exception or on a
non-finite loss once the buffer is full.  A step costs the process CPU
time between consecutive step callbacks (segment, select, train,
bookkeeping), at the reference speed (see ``calibrate``); wall-clock
step times are reported by the traced run.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List

from calibrate import Calibration
from common import fingerprint_digest, peak_rss_mb, percentile

SESSION_SAMPLES = 2048
POLICY = "contrast-scoring"
#: Seeds of the run's streams are ``--seed + k * STREAM_SEED_STRIDE``.
STREAMS = 3
STREAM_SEED_STRIDE = 1_000_003


def stream_config(seed: int):
    from repro.experiments.config import default_config

    return default_config(seed=seed).with_(
        total_samples=SESSION_SAMPLES, probe_epochs=5, backend="numpy"
    )


def _one_session(config, calibration: Calibration) -> Dict[str, Any]:
    """Build components and run one session; times measured from outside.

    A step is everything between consecutive step callbacks: the whole
    loop body (segment, select, train, bookkeeping).  Each callback, and
    the end of the run, takes one calibration slice; the CPU time since
    the previous slice is converted at the speed that slice measured."""
    import repro.session as session_mod

    steps = config.iterations
    stretch_ms: List[float] = []  # CPU between slices, at reference speed
    intervals: List[float] = []  # wall time of each step
    losses: List[float] = []
    bad_steps = 0
    last = (0.0, 0.0)

    def close_stretch() -> float:
        nonlocal last
        wall, cpu = time.perf_counter(), time.process_time()
        stretch_ms.append(Calibration.at_reference(cpu - last[1], calibration.measure()))
        elapsed, last = wall - last[0], (time.perf_counter(), time.process_time())
        return elapsed

    def on_step(learner, stats) -> None:
        nonlocal bad_steps
        losses.append(stats.loss)
        if stats.buffer_size >= config.buffer_size and not math.isfinite(stats.loss):
            bad_steps += 1
        intervals.append(close_stretch())

    components = session_mod.build_components(config)
    session = (
        session_mod.Session(config, POLICY)
        .with_components(components)
        .with_eval_points(1)
        .with_lazy_interval(None)
        .on_step(on_step)
    )
    started = time.perf_counter()
    last = (started, time.process_time())
    out: Dict[str, Any] = {"attempted": steps, "fingerprint": None, "knn": float("nan")}
    try:
        result = session.run()
        out["knn"] = float(result.info["final_knn_accuracy"])
        out["fingerprint"] = fingerprint_digest({"losses": losses, "knn": out["knn"]})
    except Exception as exc:  # noqa: BLE001 - a crashed session is a counted failure
        out["error"] = f"{type(exc).__name__}: {exc}"
    close_stretch()
    # The first stretch runs up to the first callback, the last one from
    # the last callback through the final probe and kNN readout.
    out.update(
        failed=bad_steps + (steps - len(losses)),
        wall_s=time.perf_counter() - started,
        cpu_ms=sum(stretch_ms),
        intervals=intervals[1:],
        step_ms=stretch_ms[1:-1],
    )
    return out


def _sessions(configs, calibration, budget_s: float, minimum: int) -> List[Dict[str, Any]]:
    """Whole sessions, cycling through ``configs``, until the next would
    overrun ``budget_s``."""
    runs: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        index = len(runs) % len(configs)
        runs.append(dict(_one_session(configs[index], calibration), stream=index))
        elapsed = time.perf_counter() - started
        if len(runs) >= minimum and elapsed + runs[-1]["wall_s"] > budget_s:
            return runs


def run(seed: int, seconds: float, trace: bool, setup_only: bool) -> Dict[str, Any]:
    from repro.session import Session, build_components

    configs = [stream_config(seed + k * STREAM_SEED_STRIDE) for k in range(STREAMS)]
    # Warm-up: two steps of a throwaway session (first-call allocations,
    # BLAS start-up) so the first timed step is a steady one.
    Session(configs[0], POLICY).with_components(
        build_components(configs[0])
    ).with_eval_points(1).run(stop_after=2)
    calibration = Calibration()
    setup_s = calibration.setup_s()
    if setup_only:
        return {"setup_s": setup_s}

    if not trace:
        runs = _sessions(configs, calibration, seconds, minimum=STREAMS + 1)
        traced = []
    else:
        from layers import install
        from repro.obs import metrics, reset_metrics, set_metrics_enabled
        from tracing import Recorder

        runs = _sessions(configs, calibration, seconds / 2, minimum=1)
        recorder = Recorder()
        install(recorder)
        reset_metrics()
        set_metrics_enabled(True)
        try:
            traced = _sessions(configs, calibration, seconds / 2, minimum=1)
        finally:
            set_metrics_enabled(False)
            recorder.restore()

    every = runs + traced
    prints = {r["stream"]: set() for r in every}
    for r in every:
        prints[r["stream"]].add(r["fingerprint"])
    errors = [r["error"] for r in every if "error" in r]
    checks = {
        "losses finite": sum(r["failed"] for r in every) == 0,
        "knn_acc in [0, 1]": all(0.0 <= r["knn"] <= 1.0 for r in every),
        "fingerprint identical across sessions of one stream": all(
            len(p) == 1 and None not in p for p in prints.values()
        ),
    }
    knn = {r["stream"]: r["knn"] for r in runs}
    intervals = [x for r in runs for x in r["intervals"]]
    step_ms = [x for r in runs for x in r["step_ms"]]
    wall = sum(r["wall_s"] for r in runs)
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "checks": checks,
        "errors": errors,
        "notes": {
            "sessions": len(runs),
            "steps_timed": len(intervals),
            "wall_step_ms": {q: percentile(intervals, q) * 1e3 for q in (50, 90)},
            "wall_samples_per_s": SESSION_SAMPLES * len(runs) / wall,
            "fingerprints": {k: sorted(v, key=str) for k, v in prints.items()},
            "knn_acc": knn,
        },
        "metrics": {
            "op_cpu_ms.p50": percentile(step_ms, 50),
            "op_cpu_ms.p90": percentile(step_ms, 90),
            "items_per_cpu_s": SESSION_SAMPLES * len(runs) / sum(r["cpu_ms"] for r in runs) * 1e3,
            "accuracy": sum(knn.values()) / len(knn),
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    if trace:
        from layers import in_process_metrics
        from tracing import format_table, obs_families, summarize

        summary = summarize(recorder.spans)
        snapshot = metrics().snapshot()
        traced_wall = sum(r["wall_s"] for r in traced)
        per_layer = in_process_metrics(summary, recorder.counts, snapshot)
        per_layer["obs.trace_overhead"] = (traced_wall / (SESSION_SAMPLES * len(traced))) / (
            wall / (SESSION_SAMPLES * len(runs))
        )
        per_layer["wall.op_ms.p50"] = percentile(intervals, 50) * 1e3
        per_layer["wall.op_ms.tail"] = percentile(intervals, 90) * 1e3
        result["per_layer"] = per_layer
        result["table"] = (
            format_table(summary, traced_wall, "stream: spans of the traced sessions (self % of Session.run wall)")
            + ["repro.obs families:"]
            + obs_families(snapshot)
        )
        result["spans"] = recorder
    return result
