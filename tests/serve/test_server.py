"""ScoringServer: micro-batching, caching, versioning, admission, TCP."""

import asyncio
import base64
import json

import numpy as np
import pytest

from repro.experiments.config import StreamExperimentConfig
from repro.serve import (
    Decision,
    EmbeddingCache,
    InprocClient,
    ModelRegistry,
    ScoringServer,
    TcpClient,
    serve_tcp,
)
from repro.serve.net import _score_request
from repro.session import Session, build_components
from tests.helpers import MALFORMED_ARRAY_SPECS


def tiny_config(**overrides):
    base = dict(
        dataset="cifar10",
        image_size=8,
        stc=8,
        total_samples=32,
        buffer_size=8,
        encoder_widths=(8, 16),
        projection_dim=8,
        probe_train_per_class=2,
        probe_test_per_class=2,
        probe_epochs=2,
        seed=0,
    )
    base.update(overrides)
    return StreamExperimentConfig(**base)


@pytest.fixture(scope="module")
def published():
    """One trained tiny session published twice, plus serving components."""
    config = tiny_config()
    session = Session(config)
    session.run(stop_after=2)
    models = ModelRegistry()
    v1 = models.publish_session(session, source="first")
    session.run(stop_after=2)
    v2 = models.publish_session(session, source="second")
    return config, models, (v1, v2)


def make_server(published, **overrides):
    config, models, _ = published
    comp = build_components(config)
    kwargs = dict(max_batch=8, max_wait_ms=0.5, cache=EmbeddingCache())
    kwargs.update(overrides)
    return ScoringServer(comp.scorer, models, **kwargs)


def make_samples(n, seed=0, size=8):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3, size, size), dtype=np.float32)


class TestValidation:
    def test_bad_knobs_rejected(self, published):
        with pytest.raises(ValueError, match="max_batch"):
            make_server(published, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            make_server(published, max_wait_ms=-1)
        with pytest.raises(ValueError, match="queue_depth"):
            make_server(published, queue_depth=0)

    def test_unknown_policy_rejected_eagerly(self, published):
        with pytest.raises(ValueError, match="serve policy"):
            make_server(published, policy="nope")

    def test_submit_requires_running_server(self, published):
        server = make_server(published)
        with pytest.raises(RuntimeError, match="start"):
            asyncio.run(server.submit(make_samples(1)[0]))

    def test_submit_validates_shape_deadline_and_version(self, published):
        async def run():
            async with make_server(published) as server:
                with pytest.raises(ValueError, match="CHW"):
                    await server.submit(make_samples(2))  # NCHW, not CHW
                with pytest.raises(ValueError, match="deadline_ms"):
                    await server.submit(make_samples(1)[0], deadline_ms=0)
                with pytest.raises(KeyError, match="not retained"):
                    await server.submit(make_samples(1)[0], model_version=99)

        asyncio.run(run())


class TestBatchingAndDecisions:
    def test_concurrent_stream_is_micro_batched(self, published):
        samples = make_samples(12)

        async def run():
            async with make_server(published, max_batch=8) as server:
                decisions = await server.submit_many(samples, device_id="d0")
                return decisions, server.stats()

        decisions, stats = asyncio.run(run())
        assert len(decisions) == 12
        assert all(d.status == "ok" for d in decisions)
        assert all(d.score is not None and 0.0 <= d.score <= 2.0 for d in decisions)
        # submit-all-then-drain: 12 requests over max_batch=8 -> 8 + 4
        assert [d.batch_size for d in decisions] == [8] * 8 + [4] * 4
        assert stats["batches"] == 2
        assert stats["decisions"]["ok"] == 12

    def test_decision_matches_direct_scorer(self, published):
        config, models, (v1, v2) = published
        samples = make_samples(5)

        async def run():
            async with make_server(published, cache=None) as server:
                return await server.submit_many(samples, model_version=v2)

        decisions = asyncio.run(run())
        comp = build_components(config)
        state = models.get(v2)
        comp.encoder.load_state_dict(
            {k[len("encoder/"):]: v for k, v in state.items() if k.startswith("encoder/")}
        )
        comp.projector.load_state_dict(
            {k[len("projector/"):]: v for k, v in state.items() if k.startswith("projector/")}
        )
        expected = comp.scorer.score(samples)
        got = np.array([d.score for d in decisions])
        np.testing.assert_array_equal(got, expected)

    def test_selection_threshold(self, published):
        samples = make_samples(4)

        async def run(threshold):
            async with make_server(published, threshold=threshold) as server:
                return await server.submit_many(samples)

        all_selected = asyncio.run(run(0.0))
        none_selected = asyncio.run(run(2.5))
        assert all(d.selected for d in all_selected)
        assert not any(d.selected for d in none_selected)

    def test_in_batch_duplicates_forward_once(self, published):
        sample = make_samples(1)[0]

        async def run():
            async with make_server(published, cache=None) as server:
                decisions = await server.submit_many([sample] * 4)
                return decisions, server.stats()

        decisions, stats = asyncio.run(run())
        assert stats["forwarded"] == 1
        assert len({d.score for d in decisions}) == 1
        # In-batch dedup is not a cache hit: no value came from a cache
        # (there is none here) — the duplicates rode the one forward.
        assert [d.cache_hit for d in decisions] == [False, False, False, False]

    def test_fingerprint_excludes_timing(self):
        a = Decision("d", 1, 0.5, True, "ok", batch_size=4, latency_ms=1.0)
        b = Decision("d", 1, 0.5, True, "ok", batch_size=9, latency_ms=99.0)
        assert a.fingerprint() == b.fingerprint()

    def test_decision_dict_roundtrip(self):
        a = Decision("d", 2, None, False, "shed", latency_ms=0.25)
        assert Decision.from_dict(a.to_dict()) == a


class TestCacheSemantics:
    def test_hit_is_bitwise_identical_to_populating_miss(self, published):
        samples = make_samples(6)

        async def run():
            async with make_server(published) as server:
                cold = await server.submit_many(samples)
                warm = await server.submit_many(samples)
                return cold, warm, server.stats()

        cold, warm, stats = asyncio.run(run())
        assert all(not d.cache_hit for d in cold)
        assert all(d.cache_hit for d in warm)
        for c, w in zip(cold, warm):
            assert np.float64(c.score).tobytes() == np.float64(w.score).tobytes()
            assert c.selected == w.selected
        assert stats["cache"]["hits"] == 6

    def test_publish_invalidates_stale_entries(self, published):
        config, _, _ = published
        session = Session(config)
        session.run(stop_after=1)
        models = ModelRegistry(keep=1)
        models.publish_session(session)
        comp = build_components(config)
        cache = EmbeddingCache()
        server = ScoringServer(
            comp.scorer, models, max_batch=4, max_wait_ms=0.5, cache=cache
        )
        samples = make_samples(4)

        async def run():
            async with server:
                await server.submit_many(samples)
                assert len(cache) == 4
                # keep=1: the new publish prunes v1, every entry is stale
                models.publish_session(session)
                assert len(cache) == 0
                warm = await server.submit_many(samples)
                assert all(not d.cache_hit for d in warm)
                assert all(d.model_version == 2 for d in warm)

        asyncio.run(run())

    def test_versions_cache_independently(self, published):
        _, _, (v1, v2) = published
        sample = make_samples(1)[0]

        async def run():
            async with make_server(published) as server:
                d1 = await server.submit(sample, model_version=v1)
                d2 = await server.submit(sample, model_version=v2)
                h1 = await server.submit(sample, model_version=v1)
                return d1, d2, h1

        d1, d2, h1 = asyncio.run(run())
        assert not d1.cache_hit and not d2.cache_hit  # distinct keys
        assert h1.cache_hit and h1.score == d1.score


class TestVersioning:
    def test_pinned_device_scores_against_old_version(self, published):
        _, models, (v1, v2) = published
        sample = make_samples(1)[0]
        models.pin("canary", v1)
        try:

            async def run():
                async with make_server(published) as server:
                    canary = await server.submit(sample, device_id="canary")
                    fresh = await server.submit(sample, device_id="other")
                    return canary, fresh

            canary, fresh = asyncio.run(run())
            assert canary.model_version == v1
            assert fresh.model_version == v2
        finally:
            models.unpin("canary")

    def test_mixed_versions_in_one_batch(self, published):
        _, _, (v1, v2) = published
        samples = make_samples(6)

        async def run():
            async with make_server(published, max_batch=6, cache=None) as server:
                return await asyncio.gather(
                    *(
                        server.submit(samples[i], model_version=v1 if i % 2 else v2)
                        for i in range(6)
                    )
                )

        decisions = asyncio.run(run())
        assert [d.model_version for d in decisions] == [v2, v1, v2, v1, v2, v1]
        # both groups executed from the same drained batch
        assert all(d.batch_size == 3 for d in decisions)


class TestAdmission:
    def test_shed_when_queue_full(self, published):
        samples = make_samples(8)

        async def run():
            async with make_server(
                published, queue_depth=1, policy="shed"
            ) as server:
                return await server.submit_many(samples)

        decisions = asyncio.run(run())
        statuses = [d.status for d in decisions]
        assert statuses.count("ok") >= 1
        assert statuses.count("shed") >= 1
        assert all(
            d.score is None and not d.selected
            for d in decisions
            if d.status == "shed"
        )

    def test_block_never_sheds(self, published):
        samples = make_samples(8)

        async def run():
            async with make_server(
                published, queue_depth=1, policy="block"
            ) as server:
                return await server.submit_many(samples)

        decisions = asyncio.run(run())
        assert all(d.status == "ok" for d in decisions)

    def test_degrade_serves_cached_then_fails_open(self, published):
        samples = make_samples(3)

        async def run():
            async with make_server(
                published, queue_depth=1, policy="degrade"
            ) as server:
                # sequential submissions never find the queue full:
                # the cold pass populates the cache with real scores
                cold = [await server.submit(s) for s in samples]
                degraded = await server.submit_many(samples)
                return cold, degraded

        cold, degraded = asyncio.run(run())
        assert all(d.status == "ok" for d in cold)
        served = [d for d in degraded if d.status == "degraded"]
        assert served, "expected overload to trigger degraded decisions"
        by_hit = {d.cache_hit for d in served}
        for d in served:
            if d.cache_hit:  # cached fallback reproduces the real score
                match = next(c for c in cold if c.score == d.score)
                assert match.selected == d.selected
            else:  # fail-open
                assert d.score is None and d.selected
        assert by_hit <= {True, False}

    def test_expired_requests_are_rejected(self, published):
        sample = make_samples(1)[0]

        async def run():
            async with make_server(published, policy="block") as server:
                return await server.submit(sample, deadline_ms=1e-6)

        decision = asyncio.run(run())
        assert decision.status == "expired"
        assert decision.score is None and not decision.selected

    def test_stop_drains_admitted_requests(self, published):
        samples = make_samples(5)

        async def run():
            server = make_server(published)
            await server.start()
            futures = [
                asyncio.ensure_future(server.submit(s, device_id="d"))
                for s in samples
            ]
            await asyncio.sleep(0)  # let the submissions enqueue
            await server.stop()
            return await asyncio.gather(*futures)

        decisions = asyncio.run(run())
        assert len(decisions) == 5
        assert all(d.status == "ok" for d in decisions)


class TestRobustness:
    """The batcher must outlive bad requests, races, and scorer faults."""

    def test_mixed_shapes_in_one_batch_all_answered(self, published):
        # Two valid CHW samples with different shapes fused into one
        # micro-batch must not kill the batcher (sub-grouped by shape).
        small, big = make_samples(1, size=8)[0], make_samples(1, size=16)[0]

        async def run():
            async with make_server(published, max_batch=8, cache=None) as server:
                first = await asyncio.gather(
                    server.submit(small), server.submit(big)
                )
                later = await server.submit(small)  # batcher still alive
                return first, later

        (a, b), later = asyncio.run(run())
        assert a.status == b.status == later.status == "ok"
        assert later.score == a.score

    def test_scorer_fault_fails_request_not_server(self, published):
        samples = make_samples(2)

        async def run():
            # stats()["errors"] is process-cumulative by design (it
            # survives server re-creation), so measure the delta.
            before = make_server(published).stats()["errors"]
            async with make_server(published, cache=None) as server:
                original = server.scorer.score
                server.scorer.score = lambda batch: (_ for _ in ()).throw(
                    RuntimeError("boom")
                )
                try:
                    with pytest.raises(RuntimeError, match="boom"):
                        await server.submit(samples[0])
                finally:
                    server.scorer.score = original
                decision = await server.submit(samples[1])
                return decision, server.stats()["errors"] - before

        decision, new_errors = asyncio.run(run())
        assert decision.status == "ok"
        assert new_errors == 1

    def test_error_count_survives_server_recreation(self, published):
        # The old instance attribute silently reset to 0 whenever the
        # server (and its batcher) was rebuilt; the registry-backed
        # counter is process-wide, so a fresh server still reports the
        # errors its predecessors saw.
        sample = make_samples(1)[0]

        async def run():
            before = make_server(published).stats()["errors"]
            async with make_server(published, cache=None) as server:
                server.scorer.score = lambda batch: (_ for _ in ()).throw(
                    RuntimeError("boom")
                )
                with pytest.raises(RuntimeError, match="boom"):
                    await server.submit(sample)
            fresh = make_server(published)
            assert fresh.stats()["errors"] == before + 1
            # ... while per-instance counters start clean.
            assert fresh.metrics.value("serve.errors") is None

        asyncio.run(run())

    def test_pruned_version_re_resolves_instead_of_crashing(self, published):
        config, _, _ = published
        session = Session(config)
        session.run(stop_after=1)
        models = ModelRegistry(keep=1)
        models.publish_session(session)
        comp = build_components(config)
        server = ScoringServer(comp.scorer, models, max_batch=4, max_wait_ms=0.5)
        sample = make_samples(1)[0]

        async def run():
            async with server:
                # Admit at v1, then let a publish prune v1 before the
                # batch executes: the request re-resolves to current.
                request = server._admit(sample, "dev", None, None)
                models.publish_session(session)  # keep=1 prunes v1
                server._execute([request])
                return await request.future

        decision = asyncio.run(run())
        assert decision.status == "ok"
        assert decision.model_version == 2

    def test_requests_behind_stop_sentinel_fail_fast(self, published):
        from repro.serve.server import _SENTINEL

        sample = make_samples(1)[0]

        async def run():
            server = make_server(published)
            await server.start()
            request = server._admit(sample, "dev", None, None)
            server._queue.put_nowait(_SENTINEL)
            server._queue.put_nowait(request)  # raced in behind the sentinel
            await server._batcher
            with pytest.raises(RuntimeError, match="server stopped"):
                await request.future
            await server.stop()

        asyncio.run(run())

    def test_submit_after_stop_initiated_fails_fast(self, published):
        sample = make_samples(1)[0]

        async def run():
            server = make_server(published)
            await server.start()
            server._closed = True  # what stop() sets before the sentinel
            with pytest.raises(RuntimeError, match="stopping"):
                await server.submit(sample)
            server._closed = False
            await server.stop()

        asyncio.run(run())


class TestClientsAndTcp:
    def test_inproc_client_stream_and_sequential_agree(self, published):
        samples = make_samples(6)

        async def run():
            async with make_server(published) as server:
                client = InprocClient(server, "dev-0")
                streamed = await client.score_stream(samples)
                sequential = await client.score_sequential(samples)
                single = await client.score(samples[0])
                return streamed, sequential, single

        streamed, sequential, single = asyncio.run(run())
        for s, q in zip(streamed, sequential):
            assert s.score == q.score  # cache makes repeats bitwise equal
            assert q.cache_hit
        assert single.score == streamed[0].score

    def test_tcp_roundtrip_matches_inproc(self, published):
        samples = make_samples(4)

        async def run():
            async with make_server(published) as server:
                inproc = await server.submit_many(samples, device_id="d0")
                tcp = await serve_tcp(server)
                port = tcp.sockets[0].getsockname()[1]
                client = await TcpClient.connect("127.0.0.1", port)
                try:
                    assert await client.ping()
                    streamed = await client.score_stream(samples, device_id="d0")
                    one = await client.score(samples[0], device_id="d0")
                    stats = await client.stats()
                finally:
                    await client.close()
                    tcp.close()
                    await tcp.wait_closed()
                return inproc, streamed, one, stats

        inproc, streamed, one, stats = asyncio.run(run())
        for a, b in zip(inproc, streamed):
            assert b.cache_hit and a.score == b.score and a.selected == b.selected
        assert one.score == inproc[0].score
        assert stats["decisions"]["ok"] >= 9

    def test_tcp_errors_come_back_on_the_wire(self, published):
        async def run():
            async with make_server(published) as server:
                tcp = await serve_tcp(server)
                port = tcp.sockets[0].getsockname()[1]
                client = await TcpClient.connect("127.0.0.1", port)
                try:
                    with pytest.raises(RuntimeError, match="unknown op"):
                        await client._roundtrip({"op": "explode"})
                    with pytest.raises(RuntimeError, match="not retained"):
                        await client.score(
                            make_samples(1)[0], model_version=1234
                        )
                    assert await client.ping()  # connection survives errors
                finally:
                    await client.close()
                    tcp.close()
                    await tcp.wait_closed()

        asyncio.run(run())

    def test_tcp_non_object_line_closes_connection(self, published):
        # Valid JSON that is not an object is malformed framing: the
        # server closes the connection instead of wedging it open.
        async def run():
            async with make_server(published) as server:
                tcp = await serve_tcp(server)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(b"5\n")
                    await writer.drain()
                    assert await reader.readline() == b""  # EOF, not a hang
                finally:
                    writer.close()
                    tcp.close()
                    await tcp.wait_closed()

        asyncio.run(run())

    def test_tcp_over_long_line_answers_error_then_closes(self, published, monkeypatch):
        # A line past the reader's limit makes readline() raise; the
        # handler must answer one error line naming the limit and close,
        # not die in client_connected_cb, and keep serving others.
        import repro.serve.net as net

        monkeypatch.setattr(net, "_MAX_LINE", 1024)

        async def run():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            async with make_server(published) as server:
                tcp = await serve_tcp(server)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(b"x" * 4096 + b"\n")
                    await writer.drain()
                    reply = json.loads(await asyncio.wait_for(reader.readline(), 10))
                    eof = await asyncio.wait_for(reader.readline(), 10)
                finally:
                    writer.close()
                client = await TcpClient.connect("127.0.0.1", port)
                try:
                    pong = await client.ping()
                finally:
                    await client.close()
                    tcp.close()
                    await tcp.wait_closed()
            return reply, eof, pong, unhandled

        reply, eof, pong, unhandled = asyncio.run(run())
        assert reply == {"ok": False, "error": "request line exceeds 1024 bytes"}
        assert eof == b""
        assert pong
        assert unhandled == []

    def test_score_request_bytes_are_pinned(self):
        """``score`` and ``score_stream`` send one request layout, byte
        for byte what a hand-written client (the benchmark's load
        generator among them) puts on the wire."""
        image = np.arange(12, dtype=np.float32).reshape(3, 2, 2)
        by_hand = {
            "op": "score",
            "sample": {
                "dtype": image.dtype.str,
                "shape": list(image.shape),
                "data": base64.b64encode(image.tobytes()).decode("ascii"),
            },
            "device_id": "dev-0",
        }
        assert json.dumps(_score_request(image, "dev-0", None, None)) == json.dumps(
            by_hand
        )
        assert json.dumps(_score_request(image, "dev-0", 3, 5.0)) == json.dumps(
            dict(by_hand, model_version=3, deadline_ms=5.0)
        )

    def test_tcp_bad_payload_answers_error_and_survives(self, published):
        # Every malformed sample (a non-dict, a missing key, a bad shape
        # or dtype, a truncated buffer) is a named decode error inside
        # the handler; it must come back as an error line, not kill the
        # responder or leak the connection.
        async def run():
            async with make_server(published) as server:
                tcp = await serve_tcp(server)
                port = tcp.sockets[0].getsockname()[1]
                client = await TcpClient.connect("127.0.0.1", port)
                try:
                    for spec in MALFORMED_ARRAY_SPECS.values():
                        with pytest.raises(RuntimeError, match="server error: array"):
                            await client._roundtrip({"op": "score", "sample": spec})
                        assert await client.ping()  # connection survives
                finally:
                    await client.close()
                    tcp.close()
                    await tcp.wait_closed()

        asyncio.run(run())


class TestStats:
    def test_stats_shape(self, published):
        samples = make_samples(3)

        async def run():
            async with make_server(published) as server:
                await server.submit_many(samples)
                return server.stats()

        stats = asyncio.run(run())
        assert stats["policy"] == "block"
        assert stats["forwarded"] == 3
        assert stats["mean_batch"] > 0
        assert stats["queued"] == 0
        assert stats["loaded_version"] == stats["current_version"]
        assert set(stats["decisions"]) == {"ok", "shed", "degraded", "expired"}
        assert stats["cache"]["size"] == 3
