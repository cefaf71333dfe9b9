#!/usr/bin/env python3
"""The ``serve`` workload's server process.

A ``fused``-backend :class:`repro.serve.ScoringServer` (``EmbeddingCache``
on, one retained model version) behind :func:`repro.serve.serve_tcp` on
an ephemeral loopback port.  Every batch fills to ``BATCH`` requests:
its straggler window (``max_wait_ms``) is far longer than the arrivals
of one batch take.  After every ``PUBLISH_EVERY`` answered requests a
new model version is published; with one version retained each publish
invalidates the cache.  So which requests share a batch, hit the cache
or meet a new version depends only on the order of the requests, not on
how fast the host ran: the server's CPU time per request follows the
program, not the load on the host's other guests.  (With the batcher's
2 ms window and a publish every second, a phase of heavy contention on
the host grew the mean batch from 5.6 to 12-14 requests and cut CPU per
request by a fifth.)

Four times a second a meter records the server's CPU time since the last
reading, the CPU time of a calibration slice it then takes (see
``calibrate``), and the requests answered meanwhile.

Protocol with the load generator: one JSON line on stdout when ready
(``{"port": ..., "setup_s": ...}``, its set-up CPU time at the reference
speed); the generator then talks to the port
with request lines only.  Closing stdin shuts the server down, after
which it prints one JSON summary line (publish times, cache and server
stats, meter rows, and with ``--trace`` its spans and ``repro.obs``
serve series).

Run: ``python3 perfbench/serve_server.py [--trace]`` with ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time

BATCH = 8
#: Straggler window: far longer than a batch takes to arrive (8 ms at
#: 1000 req/s), so every batch fills.
FILL_WAIT_MS = 1000.0
#: Answered requests between publishes (a second at 1000 req/s; a
#: multiple of ``BATCH``, so publishes fall between batches).
PUBLISH_EVERY = 1000
METER_EVERY_S = 0.25
#: Calibration slices per meter reading (about 15 ms a second).
SLICES = 2


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    from repro.nn.backend import set_backend
    from repro.obs import metrics, set_metrics_enabled
    from repro.serve import EmbeddingCache, ModelRegistry, ScoringServer, serve_tcp
    from repro.session import build_components

    from calibrate import Calibration
    from serve_model import base_state, serve_config, version_state

    set_backend("fused")
    components = build_components(serve_config())
    base = base_state(components)
    models = ModelRegistry(keep=1)
    cache = EmbeddingCache(4096)
    server = ScoringServer(
        components.scorer, models, max_batch=BATCH, max_wait_ms=FILL_WAIT_MS, cache=cache
    )
    publish_ms = []
    calibration = Calibration()
    # Meter rows: [monotonic time, CPU s, slice CPU s, answered].
    meter_rows = []

    def answered() -> int:
        return sum(server.stats()["decisions"].values())

    def publish(version: int) -> None:
        state = version_state(base, version)
        started = time.perf_counter()
        models.publish(state, source=f"v{version}")
        publish_ms.append((time.perf_counter() - started) * 1e3)

    recorder = None
    queue_depths = []
    if trace:
        from repro.core.scoring import ContrastScorer

        from tracing import Recorder

        set_metrics_enabled(True)
        recorder = Recorder()
        recorder.patch(ContrastScorer, "score", "serve.forward")
        recorder.patch(
            ScoringServer, "_execute", "serve.batch",
            before=lambda args, kwargs: queue_depths.append(args[0]._queue.qsize()),
        )
    publish(1)
    execute = server._execute
    served = 0

    def execute_then_publish(batch) -> None:
        nonlocal served
        execute(batch)
        before, served = served, served + len(batch)
        if served // PUBLISH_EVERY > before // PUBLISH_EVERY:
            publish(models.current_version + 1)

    server._execute = execute_then_publish

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        closed = asyncio.Event()

        def wait_for_stdin_eof() -> None:
            sys.stdin.buffer.read()
            loop.call_soon_threadsafe(closed.set)

        threading.Thread(target=wait_for_stdin_eof, daemon=True).start()
        await server.start()
        tcp = await serve_tcp(server, port=0)
        port = tcp.sockets[0].getsockname()[1]
        print(json.dumps({"port": port, "setup_s": calibration.setup_s()}), flush=True)
        started = time.perf_counter()

        async def meter() -> None:
            cpu, count = time.process_time(), answered()
            due = time.perf_counter()
            while True:
                due += METER_EVERY_S
                await asyncio.sleep(due - time.perf_counter())
                now, spent, total = time.perf_counter(), time.process_time() - cpu, answered()
                meter_rows.append([now, spent, calibration.measure(SLICES), total - count])
                cpu, count = time.process_time(), total

        task = loop.create_task(meter())
        await closed.wait()
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        tcp.close()
        await tcp.wait_closed()
        await server.stop()
        summary = {
            "wall_s": time.perf_counter() - started,
            "versions": models.current_version,
            "publish_ms": publish_ms,
            "meter": meter_rows,
            "cache": cache.stats(),
            "stats": server.stats(),
        }
        if recorder is not None:
            from tracing import summarize

            recorder.restore()
            summary["spans"] = summarize(recorder.spans)
            summary["queue_depths"] = queue_depths
            summary["obs"] = [e for e in metrics().snapshot() if e["name"].startswith("serve.")]
        print(json.dumps(summary), flush=True)

    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
