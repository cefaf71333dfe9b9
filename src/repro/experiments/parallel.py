"""Process-parallel sweep engine for multi-seed / multi-policy grids.

Selection-policy comparisons only become meaningful over many-seed
sweeps, and every run of a sweep is embarrassingly parallel: runs share
no mutable state (each builds its own components from its config, and
every stochastic component draws from a per-run
:class:`~repro.utils.rng.RngRegistry` seeded by ``config.seed`` alone).
This module fans such grids out over a **persistent**
:class:`~repro.experiments.pool.WorkerPool` of warm processes:

* **Specs, not objects** — a sweep is a list of :class:`SweepSpec`
  values (config + policy + run options).  Specs cross the process
  boundary as the JSON-compatible payload of
  :func:`repro.session.config_to_dict`, and results come back as
  :meth:`~repro.session.StreamRunResult.to_dict` payloads, so the wire
  format is the same stable schema used for archiving.  (Array-heavy
  payloads — fleet device state — additionally pick a codec from the
  ``WIRE_FORMATS`` registry; see :mod:`repro.experiments.wire`.)
* **Deterministic merging** — results are returned in spec order
  regardless of worker completion order, and the round trip through
  ``to_dict``/``from_dict`` is lossless, so a parallel sweep is
  bitwise-identical to the serial one on every deterministic field
  (:func:`result_fingerprint`; wall-clock timings necessarily differ).
* **RNG isolation** — follows from the per-run registries: a worker
  process never touches another run's generators, and no component
  draws from numpy's global RNG.  The equivalence tests in
  ``tests/integration/test_parallel.py`` enforce this.
* **Warm workers** — pools persist across :func:`run_jobs` calls
  (one per size), so repeated fan-outs — fleet rounds, sweep batches —
  pay worker startup once per process, not per call.
* **Crash containment** — a worker dying mid-job is a
  :class:`~repro.experiments.pool.WorkerCrashedError`, not a raw
  pickling/queue error: the affected jobs are re-run serially in the
  parent (with a warning naming the crash), and the pool respawns the
  dead slot for subsequent calls.
* **Graceful fallback** — ``workers=1`` (or a single spec) runs serially
  in-process with zero multiprocessing involvement, and an unavailable
  multiprocessing substrate degrades to the serial path with a warning.
* **Per-stage timing** — every :func:`run_jobs` result carries a
  :class:`JobTimings` (serialize / transport / compute / merge) so the
  fleet and sweep tables can attribute wall time to stages.
* **Backend threading** — the array-backend selection
  (:mod:`repro.nn.backend`) rides each spec's config: ``config.backend``
  crosses the process boundary inside the ``config_to_dict`` payload
  and the worker's Session activates it, so a sweep of ``fused`` runs
  behaves identically under any worker count.  A ``None`` backend
  inherits the worker's process default (``REPRO_BACKEND``, which both
  ``fork`` and ``spawn`` children see — though with a persistent pool
  the value is read at first pool use).

``run_multi_seed``, ``run_table2``, ``run_stc_sweep``, and
``run_learning_curves`` accept ``workers=`` and build on this engine;
the CLI exposes it as ``--workers``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.experiments.config import StreamExperimentConfig
from repro.experiments.pool import (
    WorkerCrashedError,
    WorkerPool,
    default_start_method,
    get_worker_pool,
)
from repro.experiments.runner import run_stream_experiment
from repro.obs import absorb_worker_telemetry, collect_worker_telemetry, metrics
from repro.session import StreamRunResult, config_from_dict, config_to_dict

__all__ = [
    "SweepSpec",
    "JobTimings",
    "JobResults",
    "WorkerCrashedError",
    "run_sweep",
    "run_jobs",
    "format_timings_footer",
    "result_fingerprint",
    "default_start_method",
    "TIMING_FIELDS",
]

#: ``StreamRunResult.to_dict`` keys that depend on wall-clock time and
#: therefore legitimately differ between serial and parallel execution.
TIMING_FIELDS = ("mean_select_seconds", "mean_train_seconds", "wall_seconds")


@dataclass
class JobTimings:
    """Where a fan-out's wall time went (never part of fingerprints).

    ``compute_s`` is the sum of worker-measured job seconds (it exceeds
    ``wall_s`` when jobs genuinely overlap on multiple cores);
    ``transport_s`` is the parent-observed dispatch-to-result latency
    minus compute — pickling, pipe traffic, and scheduler wait.
    ``serialize_s``/``merge_s`` are filled by callers that encode
    payloads before dispatch and decode results after (the fleet
    coordinator's wire encode/decode, the sweep's payload round trip).
    """

    jobs: int = 0
    workers: int = 1
    wall_s: float = 0.0
    compute_s: float = 0.0
    transport_s: float = 0.0
    serialize_s: float = 0.0
    merge_s: float = 0.0
    crashes: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def record(self, engine: str) -> None:
        """Mirror this fan-out into the process metrics registry
        (``jobs.*`` counters labelled by engine).  Each engine calls it
        once per fan-out, whether or not metrics are enabled: like
        ``pool.jobs`` and ``jobs.retries``, these are infrastructure
        counters, never gated."""
        registry = metrics()
        registry.counter("jobs.wall_seconds", engine=engine).inc(self.wall_s)
        registry.counter("jobs.compute_seconds", engine=engine).inc(self.compute_s)
        registry.counter("jobs.transport_seconds", engine=engine).inc(
            self.transport_s
        )


def format_timings_footer(timings: Optional[Dict[str, Any]]) -> Optional[str]:
    """One-line per-stage breakdown of a :meth:`JobTimings.to_dict`
    record (plus the fleet's ``wire``, if given) for experiment tables,
    or ``None`` when there is nothing to report (serial runs skip the
    footer)."""
    if not timings or timings["workers"] <= 1:
        return None
    wire = f" wire={timings['wire']}" if "wire" in timings else ""
    stages = " ".join(
        f"{stage} {timings[stage + '_s']:.3f}s"
        for stage in ("serialize", "transport", "compute", "merge", "wall")
    )
    crashes = f" crashes {timings['crashes']}" if timings["crashes"] else ""
    head = f"timings: jobs={timings['jobs']} workers={timings['workers']}{wire}"
    return f"{head} {stages}{crashes}"


class JobResults(list):
    """``run_jobs``/``run_sweep`` output: an ordinary result list (in
    payload order) that additionally carries the fan-out's
    :class:`JobTimings`."""

    def __init__(self, values: Sequence[Any], timings: JobTimings):
        super().__init__(values)
        self.timings = timings


@dataclass(frozen=True)
class SweepSpec:
    """One run of a sweep: a config plus the run options of
    :func:`~repro.experiments.runner.run_stream_experiment`.

    ``tag`` is caller bookkeeping (e.g. ``"fifo/seed3"``) echoed back by
    nothing — the engine identifies runs purely by position, which is
    what makes merged results order-stable.  Execution-layer selection
    (the array backend) is part of ``config`` (``config.backend``), so
    it needs no field here and crosses the wire with the rest of the
    config payload.
    """

    config: StreamExperimentConfig
    policy: str = "contrast-scoring"
    eval_points: int = 1
    label_fraction: float = 1.0
    lazy_interval: Optional[int] = None
    score_momentum: float = 0.0
    tag: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible wire form (crosses the process boundary)."""
        return {
            "config": config_to_dict(self.config),
            "policy": self.policy,
            "eval_points": self.eval_points,
            "label_fraction": self.label_fraction,
            "lazy_interval": self.lazy_interval,
            "score_momentum": self.score_momentum,
            "tag": self.tag,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_payload`."""
        payload = dict(payload)
        payload["config"] = config_from_dict(payload["config"])
        return cls(**payload)


def _worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker: payload in, result payload out (must be module-level
    so every start method can import it).

    Telemetry the run recorded in this worker process piggybacks on the
    result payload under ``"_telemetry"`` (absent when empty, and never
    attached on the in-parent serial/fallback path); ``run_sweep`` pops
    and merges it before the result dict is parsed, so it can never
    reach a fingerprint.
    """
    spec = SweepSpec.from_payload(payload)
    result = run_stream_experiment(
        spec.config,
        spec.policy,
        eval_points=spec.eval_points,
        label_fraction=spec.label_fraction,
        lazy_interval=spec.lazy_interval,
        score_momentum=spec.score_momentum,
    ).to_dict()
    telemetry = collect_worker_telemetry()
    if telemetry is not None:
        result["_telemetry"] = telemetry
    return result


def run_jobs(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int = 1,
    *,
    sticky_keys: Optional[Sequence[int]] = None,
    pool: Optional[WorkerPool] = None,
    refresh: Optional[Callable[[int, Any], Any]] = None,
    retry_on: Sequence[type] = (),
) -> JobResults:
    """Fan ``worker(payload)`` calls out over processes, in payload order.

    The shared execution engine under :func:`run_sweep` and the fleet
    coordinator's device rounds.  ``worker`` must be a module-level
    callable (it is pickled by qualified name), and payloads/results
    should be JSON-compatible so the wire format stays the archival one
    (array-heavy payloads select a ``WIRE_FORMATS`` codec instead).

    ``workers=1`` (or a single payload) calls ``worker`` in-process —
    the same code path, so serial and parallel execution are
    bitwise-identical whenever ``worker`` is deterministic.  Parallel
    calls reuse the persistent :func:`get_worker_pool` pool (pass
    ``pool=`` to supply one, e.g. for sticky channel affinity plus
    generation tracking); an unavailable multiprocessing substrate
    degrades to serial with a warning.

    Errors raised *by* jobs propagate (first in payload order, with the
    remote traceback attached as a note).  A worker process *dying*
    mid-job is different: the affected jobs are re-run serially in the
    parent with a warning naming the
    :class:`~repro.experiments.pool.WorkerCrashedError` — the dead slot
    is respawned, and ``refresh(index, payload)``, if given, supplies a
    replacement payload for the re-run (stateful wire formats use this
    to re-encode a standalone payload).  ``retry_on`` extends the
    serial-re-run treatment to job-raised exception types whose cause
    is transport state rather than the job itself — the fleet
    coordinator passes ``WireProtocolError`` so a delta payload routed
    to a mid-call respawned worker (whose caches died with the old
    process) recovers instead of failing the round.  ``sticky_keys``
    is forwarded to :meth:`WorkerPool.map` for identity-stable routing
    of varying job lists.

    The returned list is a :class:`JobResults` carrying
    :class:`JobTimings`, on every call (zero payloads included).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    payloads = list(payloads)
    workers = min(workers, len(payloads))
    if pool is None and workers > 1:
        pool = get_worker_pool(workers)
    start = time.perf_counter()
    if pool is None:
        # A caller-supplied pool is used even for a single payload:
        # sticky channel state (delta caches) lives in its workers, so
        # downgrading to in-parent serial would strand those caches.
        values = [worker(payload) for payload in payloads]
        wall = time.perf_counter() - start
        return JobResults(
            values, JobTimings(jobs=len(values), wall_s=wall, compute_s=wall)
        )

    raw: Dict[str, Any] = {}
    values = pool.map(
        worker,
        payloads,
        sticky_keys=sticky_keys,
        return_exceptions=True,
        timings=raw,
    )
    retry_types: Tuple[type, ...] = (WorkerCrashedError, *retry_on)
    # Job-raised exceptions propagate (first in payload order).
    for value in values:
        if isinstance(value, BaseException) and not isinstance(value, retry_types):
            raise value
    # Worker *crashes* (and caller-nominated transport-state errors)
    # fail only their jobs: warn with the named error and fall back to
    # serial in the parent for the affected payloads.
    crashed = [
        index for index, value in enumerate(values) if isinstance(value, retry_types)
    ]
    if crashed:
        metrics().counter("jobs.retries").inc(len(crashed))
    for index in crashed:
        warnings.warn(
            f"{values[index]}; re-running job {index} serially",
            RuntimeWarning,
            stacklevel=2,
        )
        payload = payloads[index]
        if refresh is not None:
            payload = refresh(index, payload)
        values[index] = worker(payload)
    timings = JobTimings(
        jobs=len(payloads),
        workers=pool.size,
        wall_s=time.perf_counter() - start,
        compute_s=raw.get("compute_s", 0.0),
        transport_s=raw.get("transport_s", 0.0),
        crashes=int(raw.get("crashes", 0)),
    )
    return JobResults(values, timings)


def run_sweep(specs: Sequence[SweepSpec], workers: int = 1) -> JobResults:
    """Run every spec and return results in spec order.

    Parameters
    ----------
    specs: the runs to execute.
    workers: worker process count.  1 (the default) runs serially
        in-process; values above the spec count are clamped.

    Serial and parallel runs take the same payload round trip through
    :func:`run_jobs` and produce identical results on every
    deterministic field — see :func:`result_fingerprint` — because runs
    share no state and the round trip is lossless.  The returned list
    carries :class:`JobTimings` as ``.timings`` (the sweep tables'
    per-stage breakdown), mirrored into the ``jobs.*{engine=sweep}``
    counters.
    """
    serialize_start = time.perf_counter()
    payloads = [spec.to_payload() for spec in specs]
    serialize_s = time.perf_counter() - serialize_start
    result_payloads = run_jobs(_worker, payloads, workers=workers)
    merge_start = time.perf_counter()
    results = []
    for payload in result_payloads:
        # Worker-recorded telemetry merges into the parent registry and
        # never reaches the parsed result (fingerprints stay clean).
        absorb_worker_telemetry(payload.pop("_telemetry", None))
        results.append(StreamRunResult.from_dict(payload))
    timings = result_payloads.timings
    timings.serialize_s += serialize_s
    timings.merge_s += time.perf_counter() - merge_start
    timings.record("sweep")
    return JobResults(results, timings)


def result_fingerprint(result: StreamRunResult) -> Dict[str, Any]:
    """The deterministic payload of a run: ``to_dict()`` minus the
    wall-clock timing fields (:data:`TIMING_FIELDS`).

    Two runs of the same spec — serial, parallel, or resumed — must
    produce equal fingerprints; the equivalence tests compare exactly
    this.
    """
    payload = result.to_dict()
    for key in TIMING_FIELDS:
        payload.pop(key, None)
    # Telemetry is observation only: whether metrics were enabled for a
    # run (config.obs) must never distinguish otherwise-identical runs.
    config = payload.get("config")
    if isinstance(config, dict):
        config = dict(config)
        config["obs"] = None
        payload["config"] = config
    return payload
