"""JSON-lines TCP transport for the scoring server.

A thin network skin over a running :class:`~repro.serve.ScoringServer`:
each connection carries newline-delimited JSON requests and responses,
so any language with sockets and JSON can talk to the service (the
``repro serve --port`` mode).  Arrays travel as
``{"dtype", "shape", "data"}`` with base64-encoded raw bytes — the
shared array codec :func:`repro.experiments.wire.encode_array`, whose
decoder answers a malformed sample with a named
:class:`~repro.experiments.wire.WireProtocolError`.

Operations (``{"op": ...}`` per line):

* ``score`` — ``{"op": "score", "sample": <array>, "device_id": ...,
  "model_version": ..., "deadline_ms": ...}`` (all but ``sample``
  optional) → ``{"ok": true, "decision": <Decision.to_dict()>}``.
* ``stats`` — → ``{"ok": true, "stats": <ScoringServer.stats()>}``.
* ``ping`` — liveness → ``{"ok": true, "pong": true}``.

Errors come back as ``{"ok": false, "error": "..."}`` on the same
line; malformed framing (invalid JSON, or a line that is not a JSON
object) closes the connection, and so does a line over the 64 MiB
limit, after one error line that names the limit.  Concurrent requests
on one connection are served in submission order per line read, but
each ``score`` is awaited independently, so several connections (or
pipelined lines) micro-batch together exactly like in-process callers.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.serve.server import Decision, ScoringServer

# The shared array codec (repro.experiments.wire) is imported inside the
# functions that use it: the repro.experiments package imports this one.

__all__ = ["serve_tcp", "TcpClient"]

_MAX_LINE = 64 * 1024 * 1024  # generous: one CHW frame per line


def _score_request(
    sample: np.ndarray,
    device_id: str,
    model_version: Optional[int],
    deadline_ms: Optional[float],
) -> Dict[str, Any]:
    """One ``score`` request (shared by every :class:`TcpClient` path)."""
    from repro.experiments.wire import encode_array

    message: Dict[str, Any] = {
        "op": "score",
        "sample": encode_array(sample),
        "device_id": device_id,
    }
    if model_version is not None:
        message["model_version"] = model_version
    if deadline_ms is not None:
        message["deadline_ms"] = deadline_ms
    return message


async def _handle_line(server: ScoringServer, message: Dict[str, Any]) -> Dict[str, Any]:
    op = message.get("op")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "stats":
        return {"ok": True, "stats": server.stats()}
    if op == "score":
        from repro.experiments.wire import decode_array

        decision = await server.submit(
            decode_array(message["sample"]),
            device_id=message.get("device_id", "tcp"),
            model_version=message.get("model_version"),
            deadline_ms=message.get("deadline_ms"),
        )
        return {"ok": True, "decision": decision.to_dict()}
    return {"ok": False, "error": f"unknown op {op!r} (score/stats/ping)"}


async def serve_tcp(
    server: ScoringServer, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Expose ``server`` over JSON-lines TCP; returns the asyncio server.

    ``port=0`` binds an ephemeral port — read the bound address from
    ``returned.sockets[0].getsockname()``.  The scoring server must
    already be started; closing the returned asyncio server does not
    stop it.
    """
    limit = _MAX_LINE

    async def safe_handle(message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            return await _handle_line(server, message)
        except Exception as exc:  # noqa: BLE001 - answer on the wire, keep serving
            return {"ok": False, "error": str(exc)}

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Each line is dispatched as its own task so pipelined score
        # requests reach the batcher together; responses are written
        # back in line order.
        pending: "asyncio.Queue[Optional[asyncio.Future]]" = asyncio.Queue()

        async def respond() -> None:
            while True:
                task = await pending.get()
                if task is None:
                    break
                response = await task
                try:
                    writer.write(json.dumps(response).encode("utf-8") + b"\n")
                    await writer.drain()
                except (ConnectionError, OSError):  # pragma: no cover - peer gone
                    break

        loop = asyncio.get_running_loop()
        responder = loop.create_task(respond())
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the reader's line limit: answer, then close
                    rejected = loop.create_future()
                    rejected.set_result(
                        {"ok": False, "error": f"request line exceeds {limit} bytes"}
                    )
                    pending.put_nowait(rejected)
                    break
                if not line:
                    break
                try:
                    message = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break  # malformed framing: drop the connection
                if not isinstance(message, dict):
                    break  # valid JSON, but not a request object: same deal
                pending.put_nowait(loop.create_task(safe_handle(message)))
        finally:
            pending.put_nowait(None)
            try:
                await responder
            finally:
                # close() runs even if the responder raised, so the
                # connection is never wedged open; no wait_closed() —
                # the loop tears the transport down and awaiting here
                # races loop shutdown and only adds noise.
                writer.close()

    return await asyncio.start_server(handle, host, port, limit=limit)


class TcpClient:
    """A JSON-lines client for :func:`serve_tcp` (asyncio, one connection).

    Usage::

        client = await TcpClient.connect(host, port)
        decision = await client.score(sample, device_id="dev-0")
        await client.close()
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "TcpClient":
        reader, writer = await asyncio.open_connection(host, port, limit=_MAX_LINE)
        return cls(reader, writer)

    async def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._writer.write(json.dumps(message).encode("utf-8") + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(f"server error: {response.get('error', 'unknown')}")
        return response

    async def ping(self) -> bool:
        return bool((await self._roundtrip({"op": "ping"}))["pong"])

    async def stats(self) -> Dict[str, Any]:
        return (await self._roundtrip({"op": "stats"}))["stats"]

    async def score(
        self,
        sample: np.ndarray,
        device_id: str = "tcp",
        model_version: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> Decision:
        message = _score_request(sample, device_id, model_version, deadline_ms)
        return Decision.from_dict((await self._roundtrip(message))["decision"])

    async def score_stream(
        self,
        samples: Sequence[np.ndarray],
        device_id: str = "tcp",
        model_version: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[Decision]:
        """Pipeline every sample on this connection (server micro-batches).

        Lines are written back-to-back before the first response is
        read, so the server's batcher sees them together.
        """
        for sample in samples:
            message = _score_request(sample, device_id, model_version, deadline_ms)
            self._writer.write(json.dumps(message).encode("utf-8") + b"\n")
        await self._writer.drain()
        decisions: List[Decision] = []
        for _ in samples:
            line = await self._reader.readline()
            if not line:
                raise ConnectionError("server closed the connection mid-stream")
            response = json.loads(line)
            if not response.get("ok"):
                raise RuntimeError(f"server error: {response.get('error', 'unknown')}")
            decisions.append(Decision.from_dict(response["decision"]))
        return decisions

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
