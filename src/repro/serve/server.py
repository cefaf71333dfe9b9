"""The asyncio micro-batching scoring server.

The production front door of the scorer (DESIGN.md §11): requests —
one sample + device id (+ optional pinned model version) — accumulate
in a bounded queue, a batcher drains them on a size-or-deadline trigger
(``max_batch`` / ``max_wait_ms``), fuses them into single batched
forwards through the existing :class:`~repro.core.scoring.ContrastScorer`
batched path, and answers each request with a selection
:class:`Decision`.

Around the batching core:

* **embedding/score cache** — an optional
  :class:`~repro.serve.cache.EmbeddingCache` keyed by
  ``(content digest, model version)``; a hit skips the forward and
  returns the exact float64 the populating miss stored (bitwise
  identity, tested).  Every model publish invalidates entries at
  versions no longer retained, so a stale entry can never serve.
* **model versioning** — a :class:`~repro.serve.models.ModelRegistry`
  resolves each request to a version (explicit > device pin > current)
  and the server loads that snapshot into its scorer's modules lazily,
  grouping each micro-batch by version so a mixed batch loads each
  version at most once.
* **admission control** — a registered serve policy
  (:mod:`repro.serve.policies`; ``config.serve`` / ``--serve-policy``)
  decides what happens when the queue is full (block / shed / degrade)
  and when a request's per-request deadline lapses before its batch
  runs.

Determinism contract: decisions are a pure function of (request
content, resolved model version) — plus, for the last float64 bits, the
composition of the forward batch the content first rode in.  Replaying
the same request sequence through an identically configured fresh
server reproduces the same batches and therefore bitwise-identical
decisions; the perf suite's ``--check`` enforces exactly that replay
property, and the cache extends it across repeats by construction.

The scoring forward runs *in* the event loop (it is the whole point of
the process; overlapping compute with intake only adds jitter on one
CPU).  The server owns its scorer's encoder/projector modules — version
activation overwrites their arrays in place, so hand the server
dedicated components (``build_components``) rather than modules a live
training Session is still updating.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.framework import load_model_slice
from repro.core.scoring import ContrastScorer, content_hash
from repro.obs import metrics as process_metrics
from repro.obs import metrics_enabled
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import trace_span
from repro.registry import SERVE_POLICIES, UnknownComponentError
from repro.serve.cache import EmbeddingCache
from repro.serve.models import ModelRegistry

__all__ = ["Decision", "ScoreRequest", "ScoringServer", "InprocClient"]

#: Decision.status values (docs/SERVE.md): ``ok`` carries a fresh or
#: cached score; the rest are admission-control outcomes.
DECISION_STATUSES = ("ok", "shed", "degraded", "expired")


@dataclass(frozen=True)
class Decision:
    """The per-request answer of the scoring service.

    ``score``/``selected`` carry the contrast score and the threshold
    verdict for ``ok`` (and cache-served ``degraded``) decisions;
    shed/expired and fail-open degraded decisions carry ``score=None``.
    ``latency_ms`` and ``batch_size`` describe *this* run's execution
    and are excluded from :meth:`fingerprint`.
    """

    device_id: str
    model_version: Optional[int]
    score: Optional[float]
    selected: bool
    status: str
    cache_hit: bool = False
    batch_size: int = 0
    latency_ms: float = 0.0

    def fingerprint(self) -> tuple:
        """The deterministic fields: equal across replays of the same
        request sequence against the same model versions."""
        return (
            self.device_id,
            self.model_version,
            self.score,
            self.selected,
            self.status,
            self.cache_hit,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON representation (the TCP wire format)."""
        return {
            "device_id": self.device_id,
            "model_version": self.model_version,
            "score": self.score,
            "selected": self.selected,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "batch_size": self.batch_size,
            "latency_ms": self.latency_ms,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Decision":
        return cls(
            device_id=data["device_id"],
            model_version=data["model_version"],
            score=data["score"],
            selected=bool(data["selected"]),
            status=data["status"],
            cache_hit=bool(data["cache_hit"]),
            batch_size=int(data["batch_size"]),
            latency_ms=float(data["latency_ms"]),
        )


@dataclass
class ScoreRequest:
    """One in-flight request (internal; clients pass plain arguments)."""

    sample: np.ndarray
    device_id: str
    model_version: int
    deadline_ms: Optional[float]
    enqueued_at: float
    future: "asyncio.Future[Decision]" = field(repr=False, default=None)  # type: ignore[assignment]

    def expired(self, now: float) -> bool:
        return (
            self.deadline_ms is not None
            and (now - self.enqueued_at) * 1000.0 > self.deadline_ms
        )


_SENTINEL = object()


class ScoringServer:
    """Micro-batching scoring service over one scorer + model registry.

    Parameters
    ----------
    scorer:
        The :class:`ContrastScorer` whose encoder/projector the server
        owns (version activation overwrites their arrays in place).
    models:
        The :class:`ModelRegistry` of published versions; at least one
        version must be published before the first ``submit``.
    max_batch:
        Micro-batch size cap — the batcher never fuses more requests
        than this into one forward.
    max_wait_ms:
        Batching deadline: after the first request of a batch arrives,
        the batcher waits at most this long for stragglers before
        executing a partial batch.  0 disables waiting (a batch is
        whatever is already queued).
    queue_depth:
        Bound on queued (admitted, unexecuted) requests.  A full queue
        invokes the admission policy.
    policy:
        Registered serve policy name/alias (``block`` / ``shed`` /
        ``degrade``; :mod:`repro.serve.policies`).
    threshold:
        Selection rule: ``selected = score >= threshold`` (scores lie
        in [0, 2]; high score = the encoder has not learned the sample
        yet = worth keeping).
    cache:
        Optional :class:`EmbeddingCache`; enables the
        ``(digest, version)`` score cache and its publish-time
        invalidation.
    """

    def __init__(
        self,
        scorer: ContrastScorer,
        models: ModelRegistry,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        queue_depth: int = 256,
        policy: str = "block",
        threshold: float = 1.0,
        cache: Optional[EmbeddingCache] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        try:
            entry = SERVE_POLICIES.get(policy)
        except UnknownComponentError as exc:
            raise ValueError(f"policy: {exc}") from exc
        self.scorer = scorer
        self.models = models
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.queue_depth = int(queue_depth)
        self.policy_name = entry.name
        self.policy = entry.factory()
        self.threshold = float(threshold)
        self.cache = cache
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._closed = False
        self._loaded_version: Optional[int] = None
        # Telemetry: the per-instance registry is the single source the
        # old ad-hoc counters collapsed into — stats() is a thin view
        # over it.  When process metrics are enabled (REPRO_METRICS /
        # --metrics / config.obs), every recording mirrors into the
        # process-global registry too, so a serve run shows up in the
        # same console table and snapshot as everything else.  ``serve.errors`` always
        # hits the process-global registry as well: unlike the old
        # instance attribute, the error count stats() reports survives
        # tearing the server down and building a new one in-process.
        self.metrics = MetricsRegistry()
        models.on_publish(self._on_model_publish)

    def _registries(self) -> Sequence[MetricsRegistry]:
        """Where hot-path recordings land (instance + process when on)."""
        if metrics_enabled():
            return (self.metrics, process_metrics())
        return (self.metrics,)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "ScoringServer":
        """Start the batcher task (idempotent; requires a running loop)."""
        if self._batcher is None:
            self._queue = asyncio.Queue(maxsize=self.queue_depth)
            self._closed = False
            self._batcher = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Drain every admitted request, then stop the batcher.

        Admissions racing with ``stop`` fail fast (``RuntimeError``)
        instead of landing behind the sentinel and awaiting forever.
        """
        if self._batcher is None:
            return
        self._closed = True
        await self._queue.put(_SENTINEL)
        await self._batcher
        self._batcher = None
        self._queue = None

    async def __aenter__(self) -> "ScoringServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- intake ---------------------------------------------------------
    async def submit(
        self,
        sample: np.ndarray,
        device_id: str = "anon",
        model_version: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> Decision:
        """Score one CHW sample; resolves when its micro-batch executes.

        The model version is resolved *now* (explicit argument > device
        pin > current), so a publish that lands after admission does not
        retroactively change what this request is scored against — with
        one exception: if a racing publish *prunes* the resolved version
        before the batch executes, the request re-resolves (pin >
        current) at execution instead of failing.
        """
        request = self._admit(sample, device_id, model_version, deadline_ms)
        fallback = await self._enqueue(request)
        if fallback is not None:
            return fallback
        return await request.future

    async def submit_many(
        self,
        samples: Sequence[np.ndarray],
        device_id: str = "anon",
        model_version: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[Decision]:
        """Submit a batch of samples concurrently (micro-batched together).

        The bulk intake path: one coroutine admits every sample in
        order (no per-request task), so a burst pays the event loop
        once per *batch* rather than once per request.  Admission
        semantics are identical to N :meth:`submit` calls — per-request
        version resolution, and the admission policy consulted whenever
        the queue is full.
        """
        outcomes: List[Any] = []
        for sample in samples:
            request = self._admit(sample, device_id, model_version, deadline_ms)
            fallback = await self._enqueue(request)
            outcomes.append(fallback if fallback is not None else request.future)
        # Bare futures gather without task wrapping; policy fallbacks
        # resolved at admission are already Decisions.
        await asyncio.gather(
            *(o for o in outcomes if not isinstance(o, Decision))
        )
        return [o if isinstance(o, Decision) else o.result() for o in outcomes]

    def _admit(
        self,
        sample: np.ndarray,
        device_id: str,
        model_version: Optional[int],
        deadline_ms: Optional[float],
    ) -> ScoreRequest:
        """Validate one sample and resolve its version (explicit > pin >
        current) into a queued-but-not-yet-enqueued request."""
        if self._queue is None:
            raise RuntimeError("server is not running: call start() first")
        if self._closed:
            raise RuntimeError("server is stopping: not accepting new requests")
        sample = np.asarray(sample)
        if sample.ndim != 3:
            raise ValueError(f"expected one CHW sample, got shape {sample.shape}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        version = (
            self.models.require(model_version)
            if model_version is not None
            else self.models.resolve(device_id)
        )
        return ScoreRequest(
            sample=sample,
            device_id=str(device_id),
            model_version=version,
            deadline_ms=deadline_ms,
            enqueued_at=time.perf_counter(),
            future=asyncio.get_running_loop().create_future(),
        )

    async def _enqueue(self, request: ScoreRequest) -> Optional[Decision]:
        """Queue ``request``, or return the admission policy's answer."""
        if self._queue.full():
            fallback = self.policy.on_full(request, self)
            if fallback is not None:
                self._note_decision(fallback)
                return fallback
            await self._queue.put(request)
        else:
            self._queue.put_nowait(request)
        return None

    # -- the batcher ----------------------------------------------------
    async def _run(self) -> None:
        queue = self._queue
        assert queue is not None
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await queue.get()
            if item is _SENTINEL:
                break
            batch: List[ScoreRequest] = [item]
            # Opportunistic drain: everything already queued joins the
            # batch immediately (the deterministic bulk-replay path).
            while len(batch) < self.max_batch and not queue.empty():
                nxt = queue.get_nowait()
                if nxt is _SENTINEL:
                    stopping = True
                    break
                batch.append(nxt)
            # Straggler window: wait up to max_wait_ms for late arrivals.
            if not stopping and len(batch) < self.max_batch and self.max_wait_ms > 0:
                deadline = loop.time() + self.max_wait_ms / 1000.0
                while len(batch) < self.max_batch:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(queue.get(), timeout)
                    except asyncio.TimeoutError:
                        break
                    if nxt is _SENTINEL:
                        stopping = True
                        break
                    batch.append(nxt)
            try:
                self._execute(batch)
            except Exception as exc:  # noqa: BLE001 - the batcher must outlive any batch
                self._fail(batch, exc)
        # Anything that raced into the queue behind the stop sentinel
        # fails fast instead of leaving its caller awaiting forever.
        while not queue.empty():
            straggler = queue.get_nowait()
            if straggler is not _SENTINEL:
                self._fail([straggler], RuntimeError("server stopped"))

    def _execute(self, batch: List[ScoreRequest]) -> None:
        """Resolve one micro-batch: expire, group by version, fuse, answer."""
        for registry in self._registries():
            registry.counter("serve.batches").inc()
            registry.histogram("serve.batch_size").observe(len(batch))
            registry.gauge("serve.queue_depth").set(
                self._queue.qsize() if self._queue is not None else 0
            )
        now = time.perf_counter()
        live: List[ScoreRequest] = []
        for request in batch:
            if request.expired(now):
                self._resolve(request, self.policy.on_expired(request, self))
            else:
                live.append(request)
        # Group by (resolved version, sample shape/dtype) in order of
        # first appearance: one mixed batch loads each version at most
        # once, deterministically, and every group stacks homogeneously
        # (an odd-shaped sample rides in its own group instead of
        # breaking np.stack for its batch-mates).
        retained = set(self.models.versions())
        groups: Dict[tuple, List[ScoreRequest]] = {}
        for request in live:
            if request.model_version not in retained:
                # A publish pruned the version this request resolved at
                # admission; re-resolve (pin > current) rather than let
                # the registry lookup escape into the batcher task.
                request.model_version = self.models.resolve(request.device_id)
            key = (
                request.model_version,
                request.sample.shape,
                request.sample.dtype.str,
            )
            groups.setdefault(key, []).append(request)
        for (version, _, _), group in groups.items():
            try:
                self._score_group(version, group)
            except Exception as exc:  # noqa: BLE001 - fail the group, not the batcher
                self._fail(group, exc)

    def _score_group(self, version: int, group: List[ScoreRequest]) -> None:
        # Grouping in _execute guarantees homogeneous shape/dtype, so
        # one batched digest call amortizes the per-call overhead
        # across the whole group.
        if len(group) > 1:
            digests = content_hash(np.stack([r.sample for r in group], axis=0))
        else:
            digests = [content_hash(group[0].sample)[0]]
        scores: List[Optional[float]] = [None] * len(group)
        hit = [False] * len(group)
        miss_rows: List[int] = []
        miss_keys: List[str] = []
        first_row: Dict[str, List[int]] = {}
        for i, digest in enumerate(digests):
            cached = (
                self.cache.get((digest, version)) if self.cache is not None else None
            )
            if cached is not None:
                scores[i] = cached
                hit[i] = True
            elif digest in first_row:
                # Duplicate content inside the batch: forward once, the
                # extra rows are answered from that single computation.
                # Not a cache hit — the value never came from the cache.
                first_row[digest].append(i)
            else:
                first_row[digest] = [i]
                miss_rows.append(i)
                miss_keys.append(digest)
        if self.cache is not None:
            hits = sum(hit)
            for registry in self._registries():
                if hits:
                    registry.counter("serve.cache_hits").inc(hits)
                if miss_rows:
                    registry.counter("serve.cache_misses").inc(len(miss_rows))
        if miss_rows:
            self._activate(version)
            stacked = np.stack([group[i].sample for i in miss_rows], axis=0)
            with trace_span("serve.forward", batch=len(miss_rows)):
                fresh = self.scorer.score(stacked)
            for registry in self._registries():
                registry.counter("serve.forwarded").inc(len(miss_rows))
            for digest, value in zip(miss_keys, fresh):
                value = float(value)
                if self.cache is not None:
                    self.cache.put((digest, version), value)
                for row in first_row[digest]:
                    scores[row] = value
        batch_size = len(group)
        for request, score, was_hit in zip(group, scores, hit):
            assert score is not None
            self._resolve(
                request,
                Decision(
                    device_id=request.device_id,
                    model_version=version,
                    score=score,
                    selected=score >= self.threshold,
                    status="ok",
                    cache_hit=was_hit,
                    batch_size=batch_size,
                    latency_ms=(time.perf_counter() - request.enqueued_at) * 1000.0,
                ),
            )

    def _note_decision(self, decision: Decision) -> None:
        for registry in self._registries():
            registry.counter("serve.decisions", status=decision.status).inc()
            registry.histogram("serve.latency_ms").observe(decision.latency_ms)

    def _resolve(self, request: ScoreRequest, decision: Decision) -> None:
        self._note_decision(decision)
        if not request.future.done():
            request.future.set_result(decision)

    def _fail(self, requests: Sequence[ScoreRequest], error: BaseException) -> None:
        """Answer failed requests with the exception itself — the
        batcher never dies with futures left pending."""
        failed = [r for r in requests if not r.future.done()]
        if failed:
            # Always recorded process-globally (not just when metrics
            # are enabled): this is the counter stats()["errors"]
            # reports, and it must survive server re-creation.
            self.metrics.counter("serve.errors").inc(len(failed))
            process_metrics().counter("serve.errors").inc(len(failed))
        for request in failed:
            request.future.set_exception(error)

    # -- model activation / invalidation --------------------------------
    def _activate(self, version: int) -> None:
        """Load ``version`` into the scorer's modules (skip when loaded)."""
        if version == self._loaded_version:
            return
        load_model_slice(
            self.models.state_view(version), self.scorer.encoder, self.scorer.projector
        )
        self._loaded_version = version

    def _on_model_publish(self, version: int, models: ModelRegistry) -> None:
        # Stale entries must never serve: drop everything not at a
        # retained version the moment a publish lands (docs/SERVE.md).
        if self.cache is not None:
            self.cache.invalidate_stale(models.versions())
        if self._loaded_version is not None and self._loaded_version not in models.versions():
            self._loaded_version = None  # pruned under us; reload on demand

    # -- fallback + introspection ---------------------------------------
    def fallback_decision(self, request: ScoreRequest, *, fail_open: bool) -> Decision:
        """The degrade policy's cheap answer: cached score if any, else
        a fail-open/fail-closed verdict with no score."""
        cached = (
            self.cache.get((content_hash(request.sample)[0], request.model_version))
            if self.cache is not None
            else None
        )
        if cached is not None:
            return Decision(
                device_id=request.device_id,
                model_version=request.model_version,
                score=cached,
                selected=cached >= self.threshold,
                status="degraded",
                cache_hit=True,
                latency_ms=(time.perf_counter() - request.enqueued_at) * 1000.0,
            )
        return Decision(
            device_id=request.device_id,
            model_version=request.model_version,
            score=None,
            selected=bool(fail_open),
            status="degraded",
            latency_ms=(time.perf_counter() - request.enqueued_at) * 1000.0,
        )

    def rejection_decision(self, request: ScoreRequest, status: str) -> Decision:
        """A shed/expired rejection (no score, never selected)."""
        return Decision(
            device_id=request.device_id,
            model_version=request.model_version,
            score=None,
            selected=False,
            status=status,
            latency_ms=(time.perf_counter() - request.enqueued_at) * 1000.0,
        )

    @property
    def running(self) -> bool:
        return self._batcher is not None

    def stats(self) -> Dict[str, Any]:
        """Service counters (decision statuses, batching, cache, model).

        A thin view over the ``serve.*`` metrics families — the
        instance registry (:attr:`metrics`) is the single source, and
        every key keeps its historical meaning.  The one deliberate
        change: ``errors`` reads the *process-global* ``serve.errors``
        counter, so the count no longer silently resets when a server
        (and its batcher) is torn down and recreated in-process.
        """
        registry = self.metrics
        batch_size = registry.histogram("serve.batch_size")
        out: Dict[str, Any] = {
            "policy": self.policy_name,
            "decisions": {
                status: int(
                    registry.value("serve.decisions", status=status) or 0
                )
                for status in DECISION_STATUSES
            },
            "errors": int(process_metrics().value("serve.errors") or 0),
            "batches": int(registry.value("serve.batches") or 0),
            "mean_batch": batch_size.mean,
            "forwarded": int(registry.value("serve.forwarded") or 0),
            "queue_depth": self.queue_depth,
            "queued": self._queue.qsize() if self._queue is not None else 0,
            "loaded_version": self._loaded_version,
            "current_version": self.models.current_version,
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out


class InprocClient:
    """The in-process client: one device id against a running server.

    The test/benchmark front end (and the template for writing a real
    network client): :meth:`score_stream` submits a whole sample stream
    concurrently so the server micro-batches it, while
    :meth:`score_sequential` awaits each decision before sending the
    next — the unbatched request-at-a-time baseline the perf suite
    compares against.
    """

    def __init__(
        self,
        server: ScoringServer,
        device_id: str = "client",
        model_version: Optional[int] = None,
    ) -> None:
        self.server = server
        self.device_id = str(device_id)
        self.model_version = model_version

    async def score(
        self, sample: np.ndarray, deadline_ms: Optional[float] = None
    ) -> Decision:
        return await self.server.submit(
            sample,
            device_id=self.device_id,
            model_version=self.model_version,
            deadline_ms=deadline_ms,
        )

    async def score_stream(
        self, samples: Sequence[np.ndarray], deadline_ms: Optional[float] = None
    ) -> List[Decision]:
        """Submit every sample concurrently (micro-batched by the server)."""
        return await self.server.submit_many(
            samples,
            device_id=self.device_id,
            model_version=self.model_version,
            deadline_ms=deadline_ms,
        )

    async def score_sequential(
        self, samples: Sequence[np.ndarray], deadline_ms: Optional[float] = None
    ) -> List[Decision]:
        """Await each decision before submitting the next (no batching)."""
        return [
            await self.score(sample, deadline_ms=deadline_ms) for sample in samples
        ]
