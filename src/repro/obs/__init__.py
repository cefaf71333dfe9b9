"""Unified observability: metrics registry, span tracer, console table.

The single telemetry source for every runtime layer (docs/OBSERVABILITY.md):

* :mod:`repro.obs.metrics` — process-wide :class:`MetricsRegistry` of
  counters/gauges/histograms with label sets, mergeable across
  processes, gated on hot paths by ``REPRO_METRICS`` / ``--metrics`` /
  ``config.obs``.
* :mod:`repro.obs.trace` — :func:`trace_span` nested spans with logical
  step/round clocks, exportable as JSONL or Chrome trace-event JSON.
* :mod:`repro.obs.exporters` — :func:`render_console`, the table
  ``--metrics`` prints.
* :mod:`repro.obs.crossproc` — workers snapshot-and-ship, the parent
  merges by label set.

Telemetry is observation only: enabling any of it is bitwise-invisible
to session/fleet/sweep fingerprints (tests/property/test_obs_identity.py).
"""

from repro.obs.crossproc import absorb_worker_telemetry, collect_worker_telemetry
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    METRICS_ENV,
    MetricsRegistry,
    metrics,
    metrics_enabled,
    reset_metrics,
    set_metrics_enabled,
    use_metrics,
)
from repro.obs.trace import (
    SpanTracer,
    TRACE_ENV,
    current_tracer,
    set_clock,
    set_tracer,
    trace_span,
    use_tracer,
)

# The documented metric inventory: every series name the instrumented
# layers record, with what it measures.  docs/OBSERVABILITY.md mirrors
# this table and tools/check_docs.py enforces agreement both directions.
METRIC_INVENTORY = {
    # Session stream loop (gated by metrics_enabled()).
    "session.steps": "stream steps completed, labelled by policy",
    "session.select_seconds": "per-step selection/scoring duration histogram",
    "session.train_seconds": "per-step training duration histogram",
    "session.probe_seconds": "probe evaluation duration histogram",
    "session.buffer_diversity": "latest contrast-buffer label diversity",
    # Fleet coordinator (per-round).
    "fleet.rounds": "federated rounds completed",
    "fleet.sampled_k": "per-round sampled cast size histogram",
    "fleet.stragglers": "device reports past the round deadline",
    "fleet.dropouts": "sampled devices that dropped the round",
    "fleet.crashes": "worker crashes during device fan-out",
    "fleet.pending_depth": "straggler reports awaiting maturation",
    "fleet.bytes_sent": "broadcast payload bytes, labelled by wire format",
    "fleet.compression_ratio": "raw state bytes over wire bytes, by wire format",
    "fleet.round_seconds": "wall-clock per fleet round",
    # Parallel job engine (multi-seed / scenario sweeps / fleet fan-out).
    "jobs.compute_seconds": "in-worker compute seconds, labelled by engine",
    "jobs.transport_seconds": "payload transport seconds, labelled by engine",
    "jobs.wall_seconds": "end-to-end job batch seconds, labelled by engine",
    "jobs.retries": "jobs re-run serially after a worker crash or wire error",
    # Worker pool (process lifecycle).
    "pool.jobs": "jobs dispatched, labelled by worker slot (sticky routing)",
    "pool.respawns": "worker processes respawned after a crash",
    "pool.crashes": "jobs lost to a worker crash",
    # Wire formats.
    "wire.shm_bytes": "bytes staged through shared-memory segments",
    # Scoring service.
    "serve.decisions": "scoring decisions resolved, labelled by status",
    "serve.errors": "failed requests (process-lifetime; survives restarts)",
    "serve.batches": "micro-batches executed",
    "serve.batch_size": "requests per micro-batch histogram",
    "serve.queue_depth": "request queue depth at batch formation",
    "serve.cache_hits": "embedding-cache hits",
    "serve.cache_misses": "embedding-cache misses",
    "serve.forwarded": "samples forwarded to the model (cache misses scored)",
    "serve.latency_ms": "per-request latency histogram (p50/p99)",
}


def metric_inventory():
    """Copy of :data:`METRIC_INVENTORY` (name -> description)."""
    return dict(METRIC_INVENTORY)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_ENV",
    "METRIC_INVENTORY",
    "SpanTracer",
    "TRACE_ENV",
    "absorb_worker_telemetry",
    "collect_worker_telemetry",
    "current_tracer",
    "metric_inventory",
    "metrics",
    "metrics_enabled",
    "reset_metrics",
    "set_clock",
    "set_metrics_enabled",
    "set_tracer",
    "trace_span",
    "use_metrics",
    "use_tracer",
]
