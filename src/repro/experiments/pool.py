"""Persistent worker pool: warm processes reused across fan-outs.

The old parallel path paid worker startup (fork + import + allocator
warmup) on *every* :func:`repro.experiments.parallel.run_jobs` call —
a fleet of R rounds spawned R pools.  This module keeps one pool of
long-lived workers per size and reuses it across calls
(:func:`get_worker_pool`), which is what lets fleet rounds ship
deltas: a worker that stays alive keeps its decoded state caches.

Design points:

* **Duplex pipes, no queues** — each worker owns one
  ``multiprocessing.Pipe``; the parent multiplexes with
  ``multiprocessing.connection.wait``, so a dead worker surfaces as an
  EOF on its pipe (plus an ``is_alive`` poll as backstop) instead of a
  hang.
* **Crash containment** — a worker dying mid-job yields a
  :class:`WorkerCrashedError` *for that job only*; the worker slot is
  respawned immediately (bumping its :meth:`WorkerPool.generations`
  entry so delta senders know the receiver's caches are gone) and the
  remaining jobs proceed.  ``run_jobs`` turns crashed entries into a
  warned serial re-run.
* **Sticky routing** — ``map(..., sticky=True)`` pins job ``i`` to
  worker ``i % size`` (:meth:`WorkerPool.sticky_worker`), the affinity
  the ``delta`` wire format needs so a channel always decodes in the
  process that holds its cache.
* **Compute-time piggyback** — workers measure their own job seconds
  and send them back, so callers can split wall time into compute vs
  transport (the per-stage instrumentation in the fleet/sweep tables).

Jobs must be module-level callables with picklable payloads — the same
contract ``run_jobs`` always had.  Exceptions raised *by* jobs are
returned (or re-raised) with the remote traceback attached as a note.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import multiprocessing.connection
import time
import traceback
import warnings
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "WorkerPool",
    "WorkerCrashedError",
    "get_worker_pool",
    "shutdown_worker_pools",
    "default_start_method",
    "POOL_UNAVAILABLE_ERRORS",
]

#: Exceptions meaning "multiprocessing itself is unavailable here"
#: (restricted sandboxes): :func:`get_worker_pool` degrades on these.
POOL_UNAVAILABLE_ERRORS = (ImportError, OSError, PermissionError)

#: Seconds between liveness polls while waiting on worker pipes.
_WAIT_TIMEOUT = 0.1

#: Process-wide generation source.  Every worker process ever started —
#: in any pool, including replacements for closed pools — gets a value
#: no prior worker had, so a delta sender comparing stored generations
#: can never mistake a *new* pool's slot for the one whose caches it
#: remembers (the cross-call leakage a simple per-slot counter allows:
#: close pool A, create pool B, both report generation 0).
_GENERATION_COUNTER = itertools.count(1)

#: True inside a pool worker process (set by ``_worker_main``).  Fault
#: injection uses this to confine deliberate crash faults to child
#: processes: honouring ``os._exit`` in the parent would kill the run
#: instead of exercising the recovery path.
IN_POOL_WORKER = False


def default_start_method() -> str:
    """Preferred multiprocessing start method: ``fork`` where available
    (cheap worker startup on POSIX), else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class WorkerCrashedError(RuntimeError):
    """A pool worker process died mid-job (segfault, OOM kill,
    ``os._exit``) — the job never produced a result or an exception."""

    def __init__(
        self,
        message: str,
        *,
        job_index: Optional[int] = None,
        exitcode: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.job_index = job_index
        self.exitcode = exitcode


def _worker_main(connection: Any) -> None:
    """Worker loop: ``(job_id, fn, payload)`` in, ``(job_id, value,
    error, compute_seconds)`` out, until EOF or a ``None`` sentinel."""
    global IN_POOL_WORKER
    IN_POOL_WORKER = True
    # Telemetry recorded while running jobs ships home with the result
    # piggyback.  Fork start methods copy the parent's module state, so
    # start from a clean slate: drop any inherited metrics (the parent
    # still holds the originals — shipping them back would double-count
    # on merge) and swap any inherited tracer for this worker's own.
    from repro.obs.metrics import reset_metrics
    from repro.obs.trace import ensure_worker_tracer

    reset_metrics()
    ensure_worker_tracer()
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        job_id, fn, payload = message
        start = time.perf_counter()
        try:
            value, error = fn(payload), None
        except BaseException as exc:  # forwarded to the parent, not fatal here
            value, error = None, (exc, traceback.format_exc())
        compute_seconds = time.perf_counter() - start
        try:
            connection.send((job_id, value, error, compute_seconds))
        except Exception as exc:  # unpicklable result/exception: report by repr
            try:
                substitute = RuntimeError(
                    f"job result could not be sent back to the parent: {exc!r}"
                )
                connection.send((job_id, None, (substitute, ""), compute_seconds))
            except Exception:
                break
    try:
        connection.close()
    except OSError:  # pragma: no cover - already torn down
        pass


def _noop(payload: Any) -> None:
    """Warmup job (must be module-level to pickle by name)."""
    return None


class WorkerPool:
    """A fixed-size set of warm worker processes driven over pipes.

    Create via :func:`get_worker_pool` to share pools across callers;
    construct directly only for isolated lifecycles (tests).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._context = multiprocessing.get_context(default_start_method())
        self.size = int(workers)
        # Start the resource tracker *before* forking so every worker
        # inherits the parent's tracker: shared-memory segments are
        # created in one process and unlinked in another, and with
        # per-process trackers the creator's would report them as
        # leaked at shutdown (register/unregister must meet in ONE
        # tracker for the lifecycle to look balanced).
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker is an optimization
            pass
        self._processes: List[Any] = [None] * self.size
        self._connections: List[Any] = [None] * self.size
        self._generations: List[int] = [0] * self.size
        self._job_seq = 0
        self._closed = False
        for index in range(self.size):
            self._start_worker(index)

    # -- lifecycle ------------------------------------------------------
    def _start_worker(self, index: int) -> None:
        self._generations[index] = next(_GENERATION_COUNTER)
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_end,),
            name=f"repro-pool-{self.size}-{index}",
            daemon=True,
        )
        process.start()
        child_end.close()  # parent must drop its copy so worker death EOFs
        self._processes[index] = process
        self._connections[index] = parent_end

    def _respawn(self, index: int) -> None:
        """Replace a dead worker; bumps its generation so channel-state
        senders (delta wire) know its caches are gone."""
        from repro.obs import metrics

        metrics().counter("pool.respawns").inc()
        process = self._processes[index]
        try:
            self._connections[index].close()
        except OSError:  # pragma: no cover - already closed
            pass
        if process is not None:
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - hung, not dead
                process.terminate()
                process.join(timeout=1.0)
        self._start_worker(index)

    @property
    def alive(self) -> bool:
        """Usable until closed (dead workers respawn on demand)."""
        return not self._closed

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(None)
            except (BrokenPipeError, OSError):
                pass
        for connection in self._connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - refuses the sentinel
                process.terminate()
                process.join(timeout=1.0)

    # -- introspection --------------------------------------------------
    def generations(self) -> List[int]:
        """Per-slot process identities: slot ``i``'s value changes
        exactly when its process was replaced (so any process-local
        cache a sender relied on is gone).  Values are unique across
        every pool this parent ever created — two different worker
        processes never share one, even across pool close/recreate."""
        return list(self._generations)

    def sticky_worker(self, key: int) -> int:
        """The slot sticky routing assigns to key ``k`` (the job index
        by default, or the caller's ``sticky_keys[i]`` entry)."""
        return key % self.size

    def worker_pids(self) -> List[int]:
        return [process.pid for process in self._processes]

    def warm(self) -> None:
        """Run a no-op on every worker (absorbs startup cost outside
        timed sections; benchmarks call this before measuring)."""
        self.map(_noop, [None] * self.size, sticky=True)

    # -- execution ------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        sticky: bool = False,
        sticky_keys: Optional[Sequence[int]] = None,
        return_exceptions: bool = False,
        timings: Optional[Dict[str, float]] = None,
    ) -> List[Any]:
        """Run ``fn(payload)`` on the workers; results in payload order.

        ``sticky`` pins job ``i`` to worker ``i % size`` (channel
        affinity); otherwise jobs go to whichever worker frees up.
        ``sticky_keys`` (implies sticky) supplies one routing key per
        payload and pins job ``i`` to worker ``sticky_keys[i] % size``
        instead — this is how a caller whose *job list* varies between
        calls (a sampled fleet round submits only the participants)
        keeps a stable identity glued to a stable worker.
        With ``return_exceptions``, job exceptions and
        :class:`WorkerCrashedError` instances appear in the result list
        instead of being raised; without it, the first error is raised
        after every dispatched job has drained (the pool stays clean
        either way).  ``timings``, if given, receives ``compute_s``
        (sum of worker-measured job seconds), ``transport_s`` (sum of
        parent-observed latency minus compute: pickling, pipes, and
        scheduling), and ``crashes``.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        from repro.obs import metrics

        registry = metrics()
        payloads = list(payloads)
        total = len(payloads)
        if sticky_keys is not None:
            sticky = True
            keys = [int(k) for k in sticky_keys]
            if len(keys) != total:
                raise ValueError(
                    f"sticky_keys must supply one key per payload: "
                    f"got {len(keys)} keys for {total} payloads"
                )
        else:
            keys = list(range(total))
        results: List[Any] = [None] * total
        compute_total = 0.0
        transport_total = 0.0
        crashes = 0
        first_error: Optional[BaseException] = None

        if sticky:
            queues: List[deque] = [
                deque(j for j in range(total) if self.sticky_worker(keys[j]) == w)
                for w in range(self.size)
            ]
            shared: deque = deque()
        else:
            queues = []
            shared = deque(range(total))
        # worker slot -> (job index, unique job id, dispatch timestamp)
        inflight: Dict[int, Tuple[int, int, float]] = {}
        job_positions: Dict[int, int] = {}

        def next_job(worker_index: int) -> Optional[int]:
            queue = queues[worker_index] if sticky else shared
            return queue.popleft() if queue else None

        def dispatch(worker_index: int) -> None:
            job = next_job(worker_index)
            if job is None:
                return
            self._job_seq += 1
            job_id = self._job_seq
            job_positions[job_id] = job
            try:
                self._connections[worker_index].send((job_id, fn, payloads[job]))
            except (BrokenPipeError, OSError):
                # Worker died idle: replace it and dispatch to the
                # fresh process (the job itself never ran).
                self._respawn(worker_index)
                self._connections[worker_index].send((job_id, fn, payloads[job]))
            # The sticky-routing distribution: how many jobs each slot
            # actually executed this process lifetime.
            registry.counter("pool.jobs", worker=worker_index).inc()
            inflight[worker_index] = (job, job_id, time.perf_counter())

        def note_error(exc: BaseException) -> None:
            nonlocal first_error
            if first_error is None:
                first_error = exc

        def record_crash(worker_index: int) -> None:
            nonlocal crashes
            job, _job_id, _sent = inflight.pop(worker_index)
            exitcode = self._processes[worker_index].exitcode
            crashes += 1
            registry.counter("pool.crashes").inc()
            error = WorkerCrashedError(
                f"worker process {worker_index} (pid "
                f"{self._processes[worker_index].pid}) died while running job "
                f"{job} (exit code {exitcode})",
                job_index=job,
                exitcode=exitcode,
            )
            self._respawn(worker_index)
            results[job] = error
            note_error(error)
            dispatch(worker_index)

        for worker_index in range(self.size):
            dispatch(worker_index)

        while inflight:
            by_connection = {self._connections[w]: w for w in inflight}
            ready = multiprocessing.connection.wait(
                list(by_connection), timeout=_WAIT_TIMEOUT
            )
            if not ready:
                for worker_index in list(inflight):
                    if not self._processes[worker_index].is_alive():
                        record_crash(worker_index)
                continue
            for connection in ready:
                worker_index = by_connection[connection]
                if worker_index not in inflight:  # handled as a crash above
                    continue
                try:
                    job_id, value, error, compute_seconds = connection.recv()
                except (EOFError, OSError):
                    record_crash(worker_index)
                    continue
                entry = inflight.get(worker_index)
                if entry is None or entry[1] != job_id:
                    continue  # stale reply from an earlier incarnation
                job, _job_id, sent_at = inflight.pop(worker_index)
                latency = time.perf_counter() - sent_at
                compute_total += compute_seconds
                transport_total += max(0.0, latency - compute_seconds)
                if error is not None:
                    exc, remote_traceback = error
                    if remote_traceback:
                        try:
                            exc.add_note(
                                f"(remote traceback)\n{remote_traceback.rstrip()}"
                            )
                        except Exception:  # pragma: no cover - exotic exception
                            pass
                    results[job] = exc
                    note_error(exc)
                else:
                    results[job] = value
                dispatch(worker_index)

        if timings is not None:
            timings["compute_s"] = timings.get("compute_s", 0.0) + compute_total
            timings["transport_s"] = timings.get("transport_s", 0.0) + transport_total
            timings["crashes"] = timings.get("crashes", 0) + crashes
        if first_error is not None and not return_exceptions:
            raise first_error
        return results


# ----------------------------------------------------------------------
# The shared pools: one per size, created on demand, kept warm for the
# life of the process.
# ----------------------------------------------------------------------
_POOLS: Dict[int, WorkerPool] = {}


def get_worker_pool(workers: int) -> Optional[WorkerPool]:
    """The process-wide persistent pool of this size, or ``None`` where
    multiprocessing cannot run: pool creation failing with one of
    :data:`POOL_UNAVAILABLE_ERRORS` (e.g. no POSIX semaphores in a
    restricted sandbox) warns and callers run their jobs serially.

    Note the fork caveat: workers inherit the parent's modules as of
    pool creation.  Components registered *after* that (test plugins)
    still resolve in workers because payloads carry only names and
    unpickling imports defining modules — but modules mutated in-place
    post-fork will differ.  :func:`shutdown_worker_pools` forces fresh
    workers when that matters.
    """
    key = int(workers)
    pool = _POOLS.get(key)
    if pool is not None and pool.alive:
        return pool
    try:
        pool = WorkerPool(key)
    except POOL_UNAVAILABLE_ERRORS as exc:
        warnings.warn(
            f"multiprocessing unavailable ({exc}); running jobs serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    _POOLS[key] = pool
    return pool


def shutdown_worker_pools() -> None:
    """Close every persistent pool (test teardown / process exit)."""
    while _POOLS:
        _key, pool = _POOLS.popitem()
        pool.close()


atexit.register(shutdown_worker_pools)
