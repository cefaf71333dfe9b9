"""``serve``: open-loop Poisson load on the scoring service over TCP.

This process is the load generator.  It starts the server process
(``serve_server.py``), opens one pipelined JSON-lines connection, and
sends requests on a seeded Poisson schedule at a fixed 1000 req/s.  Half
the requests draw from a 64-image hot set; the rest are fresh images.
The server answers in batches of 8 and publishes a new model version
after every 1000 answered requests (about once a second), and each
publish invalidates its cache, so writes sit beside reads.

An operation is one request.  It fails on a non-ok response, a
non-``ok`` decision status, a missing response, or a failed score check.
Score checks: every score is in [0, 2], and a seeded sample of answered
requests is re-scored offline with ``ContrastScorer.score`` (numpy
reference backend) on the model version each decision names, within
1e-4.

A request's cost is the server's CPU time per answer: the server meters
its CPU time (its event loop runs the TCP framing, batcher, forwards and
publishes) four times a second, at the reference speed of a calibration
slice (see ``calibrate``), with the requests answered meanwhile.  Latency, timed
from when a request was due to when its response was read (a failed
request counts as +inf), is reported by the traced run and in the
notes: on a shared 2-CPU host it depends on the neighbours as much as
on the program.

Set-up time is the server's CPU time from its start to when it listens:
interpreter start-up, imports, component build, first publish, at the
reference speed.  The generator's own input generation is not part of
it.
"""

from __future__ import annotations

import base64
import json
import math
import os
import select
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from calibrate import Calibration
from common import BENCH_DIR, child_env, peak_rss_mb, percentile
from serve_server import METER_EVERY_S

RATE_PER_S = 1000.0
HOT_SET = 64
HOT_SHARE = 0.5
WARMUP_REQUESTS = 32
WARM_TRAFFIC_S = 2.0
DEVICE_IDS = 8
CHECK_SAMPLE = 64
#: Meter readings on each side whose slices set a reading's speed (2 s).
SMOOTH = 4
SCORE_TOLERANCE = 1e-4
DRAIN_TIMEOUT_S = 10.0


class ServerProcess:
    """The server subprocess: spawn, wait for its port, shut down."""

    def __init__(self, trace: bool) -> None:
        command = [sys.executable, os.path.join(BENCH_DIR, "serve_server.py")]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env()
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("server process exited before it was ready")
        ready = json.loads(line)
        self.port = int(ready["port"])
        self.setup_s = float(ready["setup_s"])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def shutdown(self) -> Dict[str, Any]:
        """Close stdin (the shutdown signal) and read the summary line."""
        self.proc.stdin.close()
        summary = self.proc.stdout.readline()
        self.close()
        return json.loads(summary) if summary else {}

    def close(self) -> None:
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _request_line(image: np.ndarray, device: str) -> bytes:
    data = np.ascontiguousarray(image)
    return (
        json.dumps(
            {
                "op": "score",
                "sample": {
                    "dtype": data.dtype.str,
                    "shape": list(data.shape),
                    "data": base64.b64encode(data.tobytes()).decode("ascii"),
                },
                "device_id": device,
            }
        ).encode("utf-8")
        + b"\n"
    )


def _dataset():
    from repro.data.datasets import make_dataset

    from serve_model import serve_config

    config = serve_config()
    return make_dataset(config.dataset, image_size=config.image_size)


def make_warmup(seed: int) -> List[bytes]:
    """The untimed warm-up burst (images never used by the schedule)."""
    dataset = _dataset()
    rng = np.random.default_rng([seed, 0x3A7])
    images = dataset.sample(rng.integers(0, dataset.num_classes, WARMUP_REQUESTS), rng)
    return [_request_line(image, "warmup") for image in images]


def make_inputs(seed: int, seconds: float) -> Dict[str, Any]:
    """Seeded schedule and request content (the server sees only lines)."""
    dataset = _dataset()
    rng = np.random.default_rng([seed, 0x5E12])
    count = int(RATE_PER_S * seconds)
    due = np.cumsum(rng.exponential(1.0 / RATE_PER_S, size=count))
    hot = rng.random(count) < HOT_SHARE
    hot_images = dataset.sample(rng.integers(0, dataset.num_classes, HOT_SET), rng)
    fresh = dataset.sample(rng.integers(0, dataset.num_classes, count), rng)
    pick = rng.integers(0, HOT_SET, size=count)
    images = np.where(hot[:, None, None, None], hot_images[pick], fresh)
    started = time.perf_counter()
    lines = [_request_line(images[i], f"dev-{i % DEVICE_IDS}") for i in range(count)]
    encode_ms = (time.perf_counter() - started) * 1e3 / count
    warm_count = int(RATE_PER_S * WARM_TRAFFIC_S)
    warm_images = dataset.sample(rng.integers(0, dataset.num_classes, warm_count), rng)
    return {
        "due": due,
        "images": images,
        "lines": lines,
        "warmup": make_warmup(seed),
        "warm_due": np.cumsum(rng.exponential(1.0 / RATE_PER_S, size=warm_count)),
        "warm_lines": [_request_line(image, "warmup") for image in warm_images],
        "encode_ms": encode_ms,
    }


class Connection:
    """One pipelined JSON-lines connection, read with select()."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._pending = b""
        self.lines: List[bytes] = []
        self.times: List[float] = []

    def poll(self, timeout: float) -> bool:
        """Read whatever arrives within ``timeout``; False on EOF."""
        readable, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not readable:
            return True
        chunk = self.sock.recv(1 << 20)
        now = time.perf_counter()
        if not chunk:
            return False
        parts = (self._pending + chunk).split(b"\n")
        self._pending = parts.pop()
        self.lines.extend(parts)
        self.times.extend([now] * len(parts))
        return True

    def close(self) -> None:
        self.sock.close()


def warm_up(port: int, warmup: List[bytes]) -> None:
    conn = Connection(port)
    try:
        conn.sock.sendall(b"".join(warmup))
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while len(conn.lines) < len(warmup) and time.perf_counter() < deadline:
            if not conn.poll(deadline - time.perf_counter()):
                break
        if len(conn.lines) < len(warmup):
            raise RuntimeError("server did not answer the warm-up burst")
    finally:
        conn.close()


def drive(port: int, due: np.ndarray, lines: List[bytes]) -> Dict[str, Any]:
    """Send every request when due; read responses as they come."""
    count = len(lines)
    sent = np.zeros(count)
    conn = Connection(port)
    start = time.perf_counter() + 0.01
    i = 0
    try:
        while i < count:
            now = time.perf_counter()
            if start + due[i] <= now:
                while i < count and start + due[i] <= now:
                    conn.sock.sendall(lines[i])
                    sent[i] = time.perf_counter()
                    i += 1
                continue
            if not conn.poll(start + due[i] - now):
                break
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while len(conn.lines) < i and time.perf_counter() < deadline:
            if not conn.poll(deadline - time.perf_counter()):
                break
    finally:
        conn.close()
    return {
        "start": start,
        "sent": sent[:i],
        "lines": conn.lines,
        "times": conn.times,
        "span_s": (conn.times[-1] if conn.times else time.perf_counter()) - start,
    }


def _rescore(inputs, answers, rng) -> tuple:
    """Re-score a seeded sample of answered requests offline; returns
    (disagreeing, checked)."""
    from repro.nn.backend import use_backend
    from repro.session import build_components

    from serve_model import base_state, load_version, serve_config, version_state

    answered = [i for i, a in enumerate(answers) if a is not None]
    if not answered:
        return 0, 0
    sample = rng.choice(answered, size=min(CHECK_SAMPLE, len(answered)), replace=False)
    components = build_components(serve_config())
    base = base_state(components)
    by_version: Dict[int, List[int]] = {}
    for i in sample:
        by_version.setdefault(int(answers[i]["model_version"]), []).append(int(i))
    wrong = 0
    with use_backend("numpy"):
        for version, rows in sorted(by_version.items()):
            load_version(components, version_state(base, version))
            offline = components.scorer.score(inputs["images"][rows])
            served = np.array([answers[i]["score"] for i in rows])
            wrong += int((np.abs(offline - served) > SCORE_TOLERANCE).sum())
    return wrong, len(sample)


def _phase(trace: bool, inputs: Dict[str, Any], load: bool = True) -> Dict[str, Any]:
    """One server lifetime: spawn, warm up, drive the schedule (when
    ``load``), read the server's peak RSS, shut down."""
    server = ServerProcess(trace)
    try:
        warm_up(server.port, inputs["warmup"])
        run = {}
        if load:
            # Untimed warm-up traffic at the full rate: the first second
            # of load after an idle spell runs slow on a virtual machine
            # whose CPUs were parked, and the cache starts empty.
            drive(server.port, inputs["warm_due"], inputs["warm_lines"])
            run = drive(server.port, inputs["due"], inputs["lines"])
        rss = server.peak_rss_mb()
    except BaseException:
        server.proc.kill()
        server.close()
        raise
    run.update(summary=server.shutdown(), peak_rss_mb=rss, setup_s=server.setup_s)
    return run


def _evaluate(inputs, run, rng) -> Dict[str, Any]:
    """Per-request latency, failures and score checks of one phase."""
    count = len(inputs["lines"])
    start = run["start"]
    due = inputs["due"]
    answers: List[Optional[Dict[str, Any]]] = [None] * count
    latency = [math.inf] * count
    transport: List[float] = []
    server_ms: List[float] = []
    batch: List[int] = []
    bad_range = 0
    for i, (line, when) in enumerate(zip(run["lines"], run["times"])):
        if i >= count:
            break
        response = json.loads(line)
        decision = response.get("decision") if response.get("ok") else None
        if decision is None or decision.get("status") != "ok" or decision.get("score") is None:
            continue
        if not 0.0 <= decision["score"] <= 2.0:
            bad_range += 1
            continue
        answers[i] = decision
        latency[i] = (when - (start + due[i])) * 1e3
        server_ms.append(decision["latency_ms"])
        transport.append((when - run["sent"][i]) * 1e3 - decision["latency_ms"])
        batch.append(decision["batch_size"])
    wrong, checked = _rescore(inputs, answers, rng)
    failed = count - sum(a is not None for a in answers) + wrong
    lag = [(s - (start + d)) * 1e3 for s, d in zip(run["sent"], due)]
    return {
        "count": count,
        "failed": failed,
        "wrong": wrong,
        "agreement": 1.0 - wrong / checked if checked else 0.0,
        "bad_range": bad_range,
        "latency": latency,
        "lag_mean": float(np.mean(lag)) if lag else math.inf,
        "lag_p99": percentile(lag, 99) if lag else math.inf,
        "server_ms": server_ms,
        "transport": transport,
        "batch": batch,
    }


def metered(run: Dict[str, Any], due: np.ndarray) -> List[tuple]:
    """``(CPU ms at reference speed, requests answered)`` for each meter
    reading whose whole interval lies inside the timed schedule.  Each
    reading's CPU time is converted at the median speed of the slices
    within ``SMOOTH`` readings of it (one slice pair is a noisy clock)."""
    rows = run["summary"].get("meter", [])
    units = [row[2] for row in rows]
    first, last = run["start"] + METER_EVERY_S, run["start"] + due[-1]
    return [
        (Calibration.at_reference(cpu, float(np.median(units[max(0, i - SMOOTH) : i + SMOOTH + 1]))), count)
        for i, (when, cpu, _, count) in enumerate(rows)
        if first <= when <= last and count
    ]


def run(seed: int, seconds: float, trace: bool, setup_only: bool) -> Dict[str, Any]:
    if setup_only:
        return {"setup_s": _phase(False, {"warmup": make_warmup(seed)}, load=False)["setup_s"]}

    rng = np.random.default_rng([seed, 0xC4EC])
    inputs = make_inputs(seed, seconds / 2 if trace else seconds)
    main = _phase(False, inputs)
    ev = _evaluate(inputs, main, rng)
    phases = [ev]
    if trace:
        traced_run = _phase(True, inputs)
        traced = _evaluate(inputs, traced_run, rng)
        phases.append(traced)

    rows = metered(main, inputs["due"])
    per_request = [cost / count for cost, count in rows]
    # The server's work does not depend on when requests arrive, so a
    # generator that fell behind (1.3-1.8 ms late on average in a phase
    # of heavy contention) changes only the wall-clock latency, which the
    # notes flag.
    checks = {
        "every answered score in [0, 2]": all(p["bad_range"] == 0 for p in phases),
        "offline re-score agrees within 1e-4": all(p["wrong"] == 0 for p in phases),
        "every request answered ok": all(p["failed"] == 0 for p in phases),
        "server metered throughout the schedule": len(rows) >= int(inputs["due"][-1] / METER_EVERY_S) - 2,
    }
    answered = ev["count"] - ev["failed"]
    result: Dict[str, Any] = {
        "setup_s": main["setup_s"],
        "attempted": sum(p["count"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "checks": checks,
        "errors": [],
        "notes": {
            "requests": ev["count"],
            "versions_published": main["summary"].get("versions"),
            "run_latency_ms": {
                f"p{q}": percentile(ev["latency"], q) for q in (50, 90, 99)
            },
            "gen_lag_ms_mean": ev["lag_mean"],
            "latency_valid: generator mean lateness under the mean request gap": all(
                p["lag_mean"] <= 1e3 / RATE_PER_S for p in phases
            ),
            "gen_lag_ms_p99": ev["lag_p99"],
            "throughput_per_s": answered / main["span_s"],
            "batch_size_mean": float(np.mean(ev["batch"])) if ev["batch"] else 0.0,
            "cache": main["summary"].get("cache"),
        },
        "metrics": {
            "op_cpu_ms.p50": percentile(per_request, 50),
            "op_cpu_ms.p90": percentile(per_request, 90),
            "items_per_cpu_s": sum(count for _, count in rows) / sum(cost for cost, _ in rows) * 1e3,
            "accuracy": ev["agreement"],
            "peak_rss_mb": main["peak_rss_mb"],
        },
    }
    if trace:
        result["per_layer"] = _serve_layers(inputs, traced, traced_run, ev)
        result["table"] = _serve_table(traced_run["summary"], traced_run["span_s"])
    return result


def _serve_layers(inputs, traced, traced_run, untraced) -> Dict[str, float]:
    from layers import empty_metrics
    from tracing import mean_ms

    summary = traced_run["summary"]
    spans = summary.get("spans", {})
    cache = summary.get("cache", {})
    out = empty_metrics()
    out.update(
        {
            "core.score_ms": mean_ms(spans, "serve.forward"),
            "serve.server_ms": float(np.mean(traced["server_ms"])),
            "serve.transport_ms": float(np.mean(traced["transport"])),
            "serve.forward_ms": mean_ms(spans, "serve.forward"),
            "serve.batch_size": float(np.mean(traced["batch"])),
            "serve.cache_hit_rate": float(cache.get("hit_rate", 0.0)),
            "serve.publish_ms": float(np.mean(summary.get("publish_ms") or [0.0])),
            "serve.queue_depth.p99": percentile(summary.get("queue_depths") or [0], 99),
            "gen.lag_ms.p99": traced["lag_p99"],
            "wall.op_ms.p50": percentile(untraced["latency"], 50),
            "wall.op_ms.tail": percentile(untraced["latency"], 99),
            "gen.encode_ms": inputs["encode_ms"],
            "obs.trace_overhead": float(
                np.mean([x for x in traced["latency"] if math.isfinite(x)])
                / np.mean([x for x in untraced["latency"] if math.isfinite(x)])
            ),
        }
    )
    return out


def _serve_table(summary: Dict[str, Any], wall_s: float) -> List[str]:
    from tracing import format_table, obs_families

    return (
        format_table(summary.get("spans", {}), wall_s, "serve: server-process spans (self % of the traced phase wall)")
        + ["repro.obs families (server process):"]
        + obs_families(summary.get("obs", []))
    )
