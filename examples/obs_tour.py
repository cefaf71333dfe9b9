"""A tour of the observability layer (docs/OBSERVABILITY.md).

Runs one instrumented fleet round sequence — 10 devices with a seeded
fault plan (dropouts sampled per round), K=4 round-robin sampling, the
compressed ``delta-q8`` broadcast, and 2 pool workers — with metrics
and span tracing enabled, then shows where the telemetry goes:

* the **console table** (``render_console``) shows every metric the
  run recorded — coordinator counters (``fleet.*``), per-worker job
  accounting (``pool.jobs{worker=...}``), and the ``session.*`` series
  shipped home from the workers and merged by label set;
* the **span trace** is written in Chrome trace-event format — load
  ``obs_trace.json`` at ``chrome://tracing`` (or ui.perfetto.dev) to
  see the ``fleet.round`` spans on the ``main`` lane over the
  ``session.step`` spans on each ``worker-<pid>`` lane.

Telemetry is observation only: this exact run is bitwise identical
with the instrumentation off (tests/property/test_obs_identity.py).

Executed in CI exactly as committed, so it doubles as living
documentation: if a metric name or the obs surface changes, this file
has to change with it.

Run it yourself::

    PYTHONPATH=src python examples/obs_tour.py
"""

import os

from repro.experiments.config import StreamExperimentConfig
from repro.fleet import DeviceSpec, FleetConfig, FleetCoordinator
from repro.fleet.faults import DeviceFaults, FaultPlan
from repro.obs import METRICS_ENV, metrics, set_metrics_enabled
from repro.obs.exporters import render_console
from repro.obs.trace import TRACE_ENV, SpanTracer, set_tracer

# One tiny operating point: small images, short streams, 2-epoch
# probes — CI-friendly runtime with every moving part still exercised.
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


def instrumented_fleet() -> None:
    # Turn the layer on for this process, and export the choice to the
    # environment so pool workers (who fork later) inherit it and ship
    # their telemetry home piggybacked on the job results.
    os.environ[METRICS_ENV] = "1"
    os.environ[TRACE_ENV] = "1"
    set_metrics_enabled(True)
    tracer = SpanTracer()
    set_tracer(tracer)

    plan = FaultPlan(seed=0, default=DeviceFaults(dropout_prob=0.15))
    config = CONFIG.with_(
        fleet=FleetConfig(
            devices=tuple(DeviceSpec() for _ in range(10)),
            # 3 rounds so the round-robin cast wraps: a re-sampled device
            # re-ships its state through the delta-q8 codec, which is
            # what the fleet.bytes_sent / compression_ratio series meter.
            rounds=3,
            participants=4,
            sampler="round-robin",
            fault_plan=plan,
        ),
        aggregator="fedavg",
        obs=True,
    )
    print("== instrumented fleet: 10 devices, K=4, dropouts, delta-q8 ==")
    result = FleetCoordinator(config, workers=2, wire_format="delta-q8").run()
    print(f"final global knn accuracy: {result.final_global_knn_accuracy:.3f}")

    print()
    print("== console table: every series the run recorded ==")
    print(render_console(metrics()))

    tracer.to_chrome("obs_trace.json")
    lanes = sorted({span["proc"] for span in tracer.spans})
    print()
    print(
        f"wrote obs_trace.json: {len(tracer.spans)} spans across lanes "
        f"{', '.join(lanes)} — load at chrome://tracing or ui.perfetto.dev"
    )


if __name__ == "__main__":
    instrumented_fleet()
