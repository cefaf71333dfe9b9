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
limit, after one error line that names the limit.  Responses come back
in line order.  Each connection has one reader, which admits its lines
in order without a task per line (pipelined lines, and several
connections, micro-batch together exactly like in-process callers), and
one responder, which writes every ready answer in one write.  A
connection holds at most ``queue_depth`` unanswered lines; past that the
reader stops reading and pauses its transport, so a client that does
not read its answers meets TCP back-pressure instead of filling the
server's buffers.  A connection still open when the event loop ends is
closed quietly.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

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


def _retrieve(future: "asyncio.Future[Decision]") -> None:
    """Mark a failed request's exception as seen (its line goes unwritten)."""
    if not future.cancelled():
        future.exception()


def _waiting(answer: Any) -> bool:
    """Whether ``answer`` is an admitted request its batch has not yet
    resolved."""
    return isinstance(answer, asyncio.Future) and not answer.done()


def _answer_line(answer: Any) -> bytes:
    """One response line: an answer dict, or an admitted request's future."""
    if isinstance(answer, asyncio.Future):
        error = answer.exception()
        answer = (
            {"ok": False, "error": str(error)}
            if error is not None
            else {"ok": True, "decision": answer.result().to_dict()}
        )
    return json.dumps(answer).encode("utf-8") + b"\n"


async def _admit_line(server: ScoringServer, message: Dict[str, Any]) -> Any:
    """The answer to one request line, or the future of the request it
    admitted to the batcher."""
    op = message.get("op")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "stats":
        return {"ok": True, "stats": server.stats()}
    if op == "score":
        from repro.experiments.wire import decode_array

        outcome = await server.enqueue(
            decode_array(message["sample"]),
            device_id=message.get("device_id", "tcp"),
            model_version=message.get("model_version"),
            deadline_ms=message.get("deadline_ms"),
        )
        if isinstance(outcome, Decision):  # answered at the door
            return {"ok": True, "decision": outcome.to_dict()}
        return outcome
    return {"ok": False, "error": f"unknown op {op!r} (score/stats/ping)"}


class _Connection:
    """One client connection: a reader that admits its lines in order
    through :meth:`ScoringServer.enqueue`, with no task per line, and a
    responder that writes their answers in the same order.

    The responder waits only on the oldest unanswered line; once that
    resolves, every answer ready behind it goes out in one ``write`` and
    one ``drain()``.  The reader waits while ``server.queue_depth`` lines
    are unanswered, so a client that never reads meets TCP
    back-pressure, not a growing backlog.
    """

    def __init__(
        self,
        server: ScoringServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        limit: int,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.limit = limit
        # Unanswered lines, oldest first: answer dicts and the futures
        # of admitted requests.
        self.unanswered: Deque[Any] = deque()
        self.reading = True
        self.writing = True
        self._more: Optional[asyncio.Future] = None  # wakes the responder
        self._room: Optional[asyncio.Future] = None  # wakes the reader

    @staticmethod
    def _wake(waiter: Optional[asyncio.Future]) -> None:
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def serve(self) -> None:
        responder = asyncio.get_running_loop().create_task(self._respond())
        try:
            await self._read()
        finally:
            self.reading = False
            self._wake(self._more)
            try:
                await responder
            finally:
                # Answers the peer will never get: mark their failures
                # seen, so no "exception was never retrieved" is logged.
                for answer in self.unanswered:
                    if isinstance(answer, asyncio.Future):
                        answer.add_done_callback(_retrieve)
                # close() runs even if the responder raised, so the
                # connection is never wedged open; no wait_closed() —
                # the loop tears the transport down and awaiting here
                # races loop shutdown and only adds noise.
                self.writer.close()

    def _push(self, answer: Any) -> None:
        self.unanswered.append(answer)
        self._wake(self._more)

    async def _wait_for_room(self) -> None:
        """Wait while ``queue_depth`` lines are unanswered, with the
        transport paused: the peer's further bytes stay in the kernel's
        socket buffers (TCP back-pressure), not in the reader's, which
        asyncio pauses only past twice its 64 MiB limit.  A transport
        the reader paused itself is left to the reader."""
        loop = asyncio.get_running_loop()
        transport = self.writer.transport
        paused = transport.is_reading()
        if paused:
            transport.pause_reading()
        try:
            while self.writing and len(self.unanswered) >= self.server.queue_depth:
                self._room = loop.create_future()
                await self._room
        finally:
            if paused:
                transport.resume_reading()  # a no-op once closing

    async def _read(self) -> None:
        while True:
            if len(self.unanswered) >= self.server.queue_depth:
                await self._wait_for_room()
            if not self.writing:
                return  # the peer stopped taking answers
            try:
                line = await self.reader.readline()
            except ValueError:  # the reader's line limit: answer, then close
                self._push({"ok": False, "error": f"request line exceeds {self.limit} bytes"})
                return
            except ConnectionError:
                return  # the peer reset the connection
            if not line:
                return
            try:
                message = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                return  # malformed framing: drop the connection
            if not isinstance(message, dict):
                return  # valid JSON, but not a request object: same deal
            try:
                answer = await _admit_line(self.server, message)
            except Exception as exc:  # noqa: BLE001 - answer on the wire, keep serving
                answer = {"ok": False, "error": str(exc)}
            self._push(answer)

    async def _respond(self) -> None:
        loop = asyncio.get_running_loop()
        unanswered = self.unanswered
        try:
            while unanswered or self.reading:
                if not unanswered:
                    self._more = loop.create_future()
                    await self._more
                    continue
                if _waiting(unanswered[0]):
                    try:
                        await unanswered[0]
                    except Exception:  # noqa: BLE001 - written as an error line
                        pass
                lines = []
                while unanswered and not _waiting(unanswered[0]):
                    lines.append(_answer_line(unanswered.popleft()))
                self._wake(self._room)
                self.writer.write(b"".join(lines))
                await self.writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer gone
            pass
        finally:
            self.writing = False
            self._wake(self._room)


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

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await _Connection(server, reader, writer, limit).serve()
        except asyncio.CancelledError:
            # The loop is ending with the peer still connected; serve()
            # has closed the writer.  Python 3.11's StreamReaderProtocol
            # calls exception() on a handler task that ends cancelled
            # and logs the CancelledError that raises.  Nothing else
            # awaits this task, so it ends normally instead.
            return

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
