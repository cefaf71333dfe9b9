"""The persistent worker pool: ordering, reuse across calls, sticky
routing, crash recovery, and run_jobs' serial-fallback contract."""

import os

import numpy as np
import pytest

from repro.experiments import pool as pool_module
from repro.experiments.config import StreamExperimentConfig
from repro.experiments.parallel import (
    SweepSpec,
    result_fingerprint,
    run_jobs,
    run_sweep,
)
from repro.experiments.pool import (
    WorkerCrashedError,
    WorkerPool,
    get_worker_pool,
)
from repro.fleet import FleetCoordinator


def _square(payload):
    return payload * payload


def _pid(payload):
    return os.getpid()


def _crash_on_odd(payload):
    if payload % 2 == 1:
        os._exit(13)
    return payload * 10


def _raise_on(payload):
    if payload == "boom":
        raise ValueError("job exploded")
    return payload


@pytest.fixture
def pool():
    pool = WorkerPool(2)
    yield pool
    pool.close()


class TestWorkerPool:
    def test_map_preserves_payload_order(self, pool):
        assert pool.map(_square, list(range(16))) == [i * i for i in range(16)]

    def test_pool_persists_across_calls(self, pool):
        first = set(pool.map(_pid, range(8)))
        second = set(pool.map(_pid, range(8)))
        assert first == second  # same processes, not respawned per call
        assert first == set(pool.worker_pids())

    def test_sticky_routing_pins_jobs_to_slots(self, pool):
        pool.warm()
        pids = pool.worker_pids()
        results = pool.map(_pid, range(6), sticky=True)
        for job, pid in enumerate(results):
            assert pid == pids[pool.sticky_worker(job)]

    def test_job_exception_propagates_with_remote_traceback(self, pool):
        with pytest.raises(ValueError, match="job exploded") as info:
            pool.map(_raise_on, ["fine", "boom", "fine"])
        assert any("remote traceback" in note for note in info.value.__notes__)

    def test_pool_survives_job_exception(self, pool):
        with pytest.raises(ValueError):
            pool.map(_raise_on, ["boom"])
        assert pool.map(_square, [3]) == [9]

    def test_crash_returns_named_error_and_respawns(self, pool):
        before = pool.generations()
        results = pool.map(_crash_on_odd, [0, 1, 2, 3], return_exceptions=True)
        assert results[0] == 0 and results[2] == 20
        for index in (1, 3):
            assert isinstance(results[index], WorkerCrashedError)
            assert results[index].job_index == index
        assert pool.generations() != before
        # the respawned workers keep serving
        assert pool.map(_square, [5, 6]) == [25, 36]

    def test_crash_without_return_exceptions_raises(self, pool):
        with pytest.raises(WorkerCrashedError):
            pool.map(_crash_on_odd, [1])
        assert pool.map(_square, [4]) == [16]

    def test_get_worker_pool_is_cached(self):
        assert get_worker_pool(2) is get_worker_pool(2)
        assert get_worker_pool(2) is not get_worker_pool(3)


class TestRunJobsFallback:
    def test_crash_warns_and_reruns_serially(self):
        """Satellite: a worker crash fails the affected jobs with a
        named error and run_jobs falls back to serial for them — the
        caller still gets every result, in order."""
        with pytest.warns(RuntimeWarning, match="serially") as captured:
            results = run_jobs(_crash_on_odd_in_parent, [0, 1, 2, 3], workers=2)
        assert any("re-running job 1" in str(w.message) for w in captured)
        assert list(results) == [0, 10, 20, 30]
        assert results.timings.crashes >= 1

    def test_refresh_hook_rebuilds_crash_payloads(self):
        calls = []

        def refresh(index, payload):
            calls.append(index)
            return -payload

        with pytest.warns(RuntimeWarning):
            results = run_jobs(
                _crash_on_odd_abs, [1, 2], workers=2, refresh=refresh
            )
        assert calls == [0]
        assert list(results) == [10, 20]

    def test_timings_attached(self):
        results = run_jobs(_square, [1, 2, 3], workers=2)
        assert results.timings.jobs == 3
        assert results.timings.workers == 2
        assert results.timings.compute_s >= 0.0


_MAIN_PID = os.getpid()


def _crash_on_odd_in_parent(payload):
    """Crash on odd payloads in pool workers only (fork keeps the
    parent's ``_MAIN_PID``); the parent's serial re-run succeeds."""
    if payload % 2 == 1 and os.getpid() != _MAIN_PID:
        os._exit(13)
    return payload * 10


def _crash_on_odd_abs(payload):
    if payload > 0 and payload % 2 == 1 and os.getpid() != _MAIN_PID:
        os._exit(13)
    return abs(payload) * 10


def _raise_marker(payload):
    """Raise a retryable error in pool workers; succeed in the parent."""
    if payload == "retry" and os.getpid() != _MAIN_PID:
        raise _Retryable("worker-side only")
    return f"ok:{payload}"


class _Retryable(RuntimeError):
    pass


class TestGenerationCounter:
    def test_generations_unique_across_pool_lifetimes(self):
        """Regression: generations come from a process-wide counter, so
        a new pool never reuses a closed pool's generation numbers — a
        delta sender comparing stored generations can always tell a new
        worker from an old one."""
        first = WorkerPool(2)
        first.warm()
        first_generations = list(first.generations())
        first.close()
        second = WorkerPool(2)
        second.warm()
        try:
            second_generations = list(second.generations())
            assert not set(first_generations) & set(second_generations)
            assert min(second_generations) > max(first_generations)
        finally:
            second.close()

    def test_respawn_bumps_generation_monotonically(self, pool):
        pool.warm()
        before = pool.generations()
        with pytest.raises(WorkerCrashedError):
            pool.map(_crash_on_odd, [1], sticky=True)
        after = pool.generations()
        assert after[pool.sticky_worker(0)] > before[pool.sticky_worker(0)]
        assert all(b >= a for a, b in zip(before, after))


class TestStickyKeys:
    def test_sticky_keys_route_independent_of_job_position(self, pool):
        """Regression: a sampled fleet round passes device indices as
        sticky_keys, so device d lands on worker d % size no matter
        where d sits in this round's payload list."""
        pool.warm()
        pids = pool.worker_pids()
        keys = [5, 2, 7]
        results = pool.map(_pid, range(3), sticky_keys=keys)
        for job, pid in enumerate(results):
            assert pid == pids[keys[job] % pool.size]

    def test_sticky_keys_must_match_payload_count(self, pool):
        with pytest.raises(ValueError, match="one key per payload"):
            pool.map(_pid, range(3), sticky_keys=[0, 1])

    def test_run_jobs_threads_sticky_keys(self, pool):
        pool.warm()
        pids = pool.worker_pids()
        results = run_jobs(_pid, range(4), pool=pool, sticky_keys=[3, 0, 1, 2])
        assert list(results) == [
            pids[3 % pool.size],
            pids[0],
            pids[1],
            pids[0],
        ]


class TestRetryOn:
    def test_retry_on_reruns_named_exception_serially(self):
        """Regression: retry_on extends the crash-recovery path to
        protocol errors (e.g. WireProtocolError after a respawn) —
        the job re-runs in the parent instead of failing the round."""
        with pytest.warns(RuntimeWarning, match="serially"):
            results = run_jobs(
                _raise_marker,
                ["fine", "retry"],
                workers=2,
                retry_on=(_Retryable,),
            )
        assert list(results) == ["ok:fine", "ok:retry"]

    def test_unlisted_exceptions_still_propagate(self):
        with pytest.raises(_Retryable):
            run_jobs(_raise_marker, ["fine", "retry"], workers=2)

    def test_retry_uses_refresh_payload(self):
        refreshed = []

        def refresh(index, payload):
            refreshed.append((index, payload))
            return "fresh"

        with pytest.warns(RuntimeWarning):
            results = run_jobs(
                _raise_marker,
                ["retry", "fine"],
                workers=2,
                retry_on=(_Retryable,),
                refresh=refresh,
            )
        assert refreshed == [(0, "retry")]
        assert list(results) == ["ok:fresh", "ok:fine"]


class TestPoolUnavailable:
    """No multiprocessing substrate (e.g. no POSIX semaphores): the pool
    cannot be created, a RuntimeWarning names the cause, and both
    engines run serially with the serial results."""

    @staticmethod
    def tiny_config():
        return StreamExperimentConfig(
            dataset="cifar10",
            image_size=8,
            stc=8,
            total_samples=48,
            buffer_size=8,
            encoder_widths=(8, 16),
            projection_dim=8,
            probe_train_per_class=2,
            probe_test_per_class=2,
            probe_epochs=2,
            seed=0,
        )

    @pytest.fixture(autouse=True)
    def no_multiprocessing(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise OSError("no POSIX semaphores here")

        monkeypatch.setattr(pool_module, "WorkerPool", unavailable)
        monkeypatch.setattr(pool_module, "_POOLS", {})

    def test_sweep_falls_back_to_serial(self):
        specs = [
            SweepSpec(config=self.tiny_config().with_(seed=seed), policy="fifo")
            for seed in (0, 1)
        ]
        serial = run_sweep(specs, workers=1)
        with pytest.warns(RuntimeWarning, match="multiprocessing unavailable"):
            fallback = run_sweep(specs, workers=2)
        assert [result_fingerprint(r) for r in fallback] == [
            result_fingerprint(r) for r in serial
        ]

    def test_fleet_falls_back_to_serial(self):
        config = self.tiny_config()
        serial = FleetCoordinator.build(config, devices=2, rounds=2).run()
        with pytest.warns(RuntimeWarning, match="multiprocessing unavailable"):
            fallback = FleetCoordinator.build(
                config, devices=2, rounds=2, workers=2
            ).run()
        assert fallback.fingerprint() == serial.fingerprint()
