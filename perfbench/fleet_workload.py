"""``fleet``: a population fleet run serially in one process.

The nightly population shape: a 1000-device roster, K=16 sampled per
round by the ``round-robin`` sampler, a seeded fault plan (10% dropout,
device 1 a straggler past the 1.0 s round deadline), ``fedavg-async``
aggregation, the tiny model, and the ``delta-q8`` wire format at
``workers=1`` (an explicit wire format still encodes and decodes
in-process).  The run is ``0.7 * seconds`` rounds (21 at 30 s; about
1 s each on a 2-CPU host), timed one at a time; the round count
depends only on ``--seconds``, never on speed, so memory (which grows
with devices ever sampled) compares across commits.

An operation is one trained device-round.  It fails on a crash or
retry, or when the global model state is non-finite after its round.
Its cost is the CPU time of one device job (component build, the short
session, its kNN readout, the codec legs inside the job), at the
reference speed of a calibration slice taken right after the job (see
``calibrate``); the throughput adds the coordinator's own share of each
round.  Wall-clock round times are reported by the traced run.

The run must repeat: a second coordinator of the same seed replays the
first rounds and must reach the same fingerprint.  The accuracy metric
is the share of replayed device-rounds that match the first run
bitwise; the mean device kNN accuracy (0.18-0.27 across seeds, too
seed-dependent for a bound) is in the notes and the traced run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from calibrate import Calibration
from common import fingerprint_digest, peak_rss_mb, percentile

DEVICES = 1000
PARTICIPANTS = 16
ROUNDS_PER_S = 0.7
REPLAY_ROUNDS = 3
WIRE = "delta-q8"
#: Calibration slices per round (about 7 ms against a ~1 s round).
SLICES = 4
#: Jobs on each side whose slices set a job's speed.
SMOOTH = 8


def fleet_config(seed: int, rounds: int):
    from repro.experiments.config import default_config
    from repro.fleet import DeviceSpec, FleetConfig
    from repro.fleet.faults import DeviceFaults, FaultPlan

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
            devices=tuple(DeviceSpec() for _ in range(DEVICES)),
            rounds=rounds,
            participants=PARTICIPANTS,
            sampler="round-robin",
            round_deadline_s=1.0,
            fault_plan=plan,
        ),
        aggregator="fedavg-async",
    )


def _coordinator(seed: int, rounds: int):
    from repro.fleet import FleetCoordinator

    return FleetCoordinator(fleet_config(seed, rounds), workers=1, wire_format=WIRE)


class JobMeter:
    """Times every device job from outside: ``_device_round_worker``,
    which runs in this process at ``workers=1``, is swapped for a shim
    that records its CPU time and that of a calibration slice taken
    right after it."""

    def __init__(self, calibration: Calibration) -> None:
        import repro.fleet.coordinator as coordinator_mod

        self.calibration = calibration
        self.cpu_s: List[float] = []
        self.unit_s: List[float] = []
        self.spent_s = 0.0  # CPU time of the jobs and their slices
        original = coordinator_mod._device_round_worker

        def timed_job(payload):
            started = time.process_time()
            try:
                return original(payload)
            finally:
                self.cpu_s.append(time.process_time() - started)
                self.unit_s.append(calibration.measure())
                self.spent_s += time.process_time() - started

        coordinator_mod._device_round_worker = timed_job

    def job_ms(self) -> List[float]:
        """Every job's CPU time at the reference speed, converted at the
        median speed of the slices within ``SMOOTH`` jobs of it (one
        slice is a noisy clock)."""
        units = self.unit_s
        return [
            Calibration.at_reference(cpu, float(np.median(units[max(0, i - SMOOTH) : i + SMOOTH + 1])))
            for i, cpu in enumerate(self.cpu_s)
        ]


def _rounds(coordinator, count: int, meter: JobMeter, call=None) -> Dict[str, Any]:
    """Run ``count`` rounds one by one; record wall time, device-job and
    round CPU time at the reference speed, trained devices, faults, and
    the fingerprint after the replayed prefix."""
    times: List[float] = []
    spans: List[tuple] = []  # per round: first job, end of jobs, own ms
    trained: List[int] = []
    failed = 0
    prefix = None
    result = None
    first_job = len(meter.cpu_s)
    for _ in range(count):
        jobs, job_cpu = len(meter.cpu_s), meter.spent_s
        t, c = time.perf_counter(), time.process_time()
        result = call(coordinator) if call is not None else coordinator.run(rounds=1)
        times.append(time.perf_counter() - t)
        # The coordinator's own share of the round (sampling, transport,
        # aggregation, global readout), converted at the speed of the
        # slices after the round.
        own_cpu = time.process_time() - c - (meter.spent_s - job_cpu)
        own_ms = Calibration.at_reference(own_cpu, meter.calibration.measure(SLICES))
        spans.append((jobs, len(meter.cpu_s), own_ms))
        stats = result.rounds[-1]
        trained.append(len(stats.devices))
        crashes = coordinator.timings[-1]["crashes"]
        state = coordinator.global_model_state
        finite = state is None or all(np.isfinite(v).all() for v in state.values())
        failed += crashes + (0 if finite else len(stats.devices))
        if len(times) == REPLAY_ROUNDS:
            prefix = fingerprint_digest(result.fingerprint())
    job_ms = meter.job_ms()
    return {
        "times": times,
        "round_ms": [sum(job_ms[a:b]) + own for a, b, own in spans],
        "job_ms": job_ms[first_job:],
        "trained": trained,
        "failed": failed,
        "result": result,
        "prefix": prefix,
    }


def _replayed_share(main, replay) -> float:
    """Share of the device-rounds the replay ran that match the first
    coordinator's bitwise (accuracy, diversity, samples, loss)."""
    pairs = list(zip(main["result"].rounds, replay["result"].rounds))
    same = sum(
        a.to_dict() == b.to_dict()
        for first, again in pairs
        for a, b in zip(first.devices, again.devices)
    )
    total = sum(max(len(first.devices), len(again.devices)) for first, again in pairs)
    return same / total if total else 0.0


def run(seed: int, seconds: float, trace: bool, setup_only: bool) -> Dict[str, Any]:
    rounds = max(REPLAY_ROUNDS + 1, round(seconds * ROUNDS_PER_S))
    coordinator = _coordinator(seed, rounds)
    calibration = Calibration()
    setup_s = calibration.setup_s()
    if setup_only:
        return {"setup_s": setup_s}
    meter = JobMeter(calibration)

    if not trace:
        main = _rounds(coordinator, rounds, meter)
        rss = peak_rss_mb()
        # Determinism: a fresh coordinator of the same seed replays the
        # first rounds and must reach the identical fingerprint.
        del coordinator
        replay = _rounds(_coordinator(seed, rounds), REPLAY_ROUNDS, meter)
        phases = [main, replay]
    else:
        from layers import install
        from repro.obs import metrics, reset_metrics, set_metrics_enabled
        from tracing import Recorder

        main = _rounds(coordinator, rounds // 2, meter)
        rss = peak_rss_mb()
        del coordinator
        recorder = Recorder()
        install(recorder)
        reset_metrics()
        set_metrics_enabled(True)
        try:
            # The traced replay must reach the same fingerprint as the
            # untraced rounds (tracing and obs are observation only).
            replay = _rounds(
                _coordinator(seed, rounds), rounds // 2, meter,
                call=lambda c: recorder.call("fleet.round", c.run, rounds=1),
            )
        finally:
            set_metrics_enabled(False)
            recorder.restore()
        phases = [main, replay]

    accuracies = [d.knn_accuracy for stats in main["result"].rounds for d in stats.devices]
    checks = {
        "no crashed or retried device-rounds, global state finite": sum(p["failed"] for p in phases) == 0,
        "fingerprint identical across coordinators of the seed": main["prefix"] == replay["prefix"],
        "device kNN accuracies in [0, 1]": all(0.0 <= a <= 1.0 for a in accuracies),
    }
    times = main["times"]
    knn = float(np.mean(accuracies))
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "attempted": sum(sum(p["trained"]) for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "checks": checks,
        "errors": [],
        "notes": {
            "rounds": len(times),
            "device_rounds": sum(main["trained"]),
            "wall_round_ms": {q: percentile(times, q) * 1e3 for q in (50, 90)},
            "wall_device_rounds_per_s": sum(main["trained"]) / sum(times),
            "device_knn_acc": knn,
            "device_jobs_timed": len(main["job_ms"]),
        },
        "metrics": {
            "op_cpu_ms.p50": percentile(main["job_ms"], 50),
            "op_cpu_ms.p90": percentile(main["job_ms"], 90),
            "items_per_cpu_s": sum(main["trained"]) / sum(main["round_ms"]) * 1e3,
            "accuracy": _replayed_share(main, replay),
            "peak_rss_mb": rss,
        },
    }
    if trace:
        from layers import in_process_metrics
        from tracing import format_table, obs_families, summarize

        summary = summarize(recorder.spans)
        snapshot = metrics().snapshot()
        traced_wall = sum(replay["times"])
        per_layer = in_process_metrics(summary, recorder.counts, snapshot, rounds=len(replay["times"]))
        per_layer["fleet.devices_seen"] = float(len(replay["result"].device_results))
        per_layer["fleet.device_knn_acc"] = knn
        per_layer["obs.trace_overhead"] = traced_wall / sum(times)
        per_layer["wall.op_ms.p50"] = percentile(times, 50) * 1e3
        per_layer["wall.op_ms.tail"] = percentile(times, 90) * 1e3
        result["per_layer"] = per_layer
        result["table"] = (
            format_table(summary, traced_wall, "fleet: spans of the traced rounds (self % of round wall)")
            + ["repro.obs families:"]
            + obs_families(snapshot)
        )
        result["spans"] = recorder
    return result
