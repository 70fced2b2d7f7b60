"""Asyncio wire front-end: the space server's one TCP front end.

:class:`AsyncSpaceServer` is the paper's socket wrapper (Sec. 4.2,
Figure 4): a client that sends no HELLO speaks the historical XML wire
protocol to it unchanged.  It sits on a
:class:`~repro.core.server.SpaceServer` — the space engine stays
single-threaded, the loop multiplexes connections around it:

* **single-writer send path per connection** — responses, notify events
  and timer-driven timeouts all append to one per-connection outbox
  drained by one writer task, so frames never interleave;
* **backpressure** — a connection whose outbox passes the high-water
  mark stops having its requests read until the writer drains below the
  resume mark (TCP pushes back on the client); a consumer so slow the
  hard cap is passed is closed and counted, never buffered unboundedly;
* **request pipelining/batching** — every frame completed by one socket
  read is dispatched back-to-back before the next read, and the outbox
  is flushed once per batch;
* **codec negotiation** — the HELLO/HELLO_ACK exchange of
  :mod:`repro.core.protocol` switches a connection from XML to the
  binary body codec; clients that never send HELLO speak the historical
  XML protocol unchanged;
* **graceful shutdown and a health/stats endpoint** — ``stop()`` parks
  no request forever (waiters are reaped through ``session_closed``),
  and a tiny HTTP listener answers ``/health`` and ``/stats`` for
  supervisors, modelled on gateway-daemon layouts.

Timer callbacks run on the loop via :class:`LoopTimers`, so — like the
simulated stack — *everything* touching the space runs on one thread
and no locks are needed.  See docs/wire.md for the full protocol story.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Optional

from repro.core.errors import (
    ConnectionClosedError,
    ProtocolError,
    RequestTimeoutError,
    SpaceError,
)
from repro.core.protocol import (
    REQUEST_ID_MODULUS,
    Message,
    MessageType,
    StreamParser,
    encode_message,
    make_wire_codec,
    negotiate_codec,
)
from repro.core.server import SpaceServer, Timers
from repro.core.xmlcodec import XmlCodec

#: Outbox byte thresholds: pause reading a connection above ``HIGH_WATER``,
#: resume below ``RESUME``, close a slow consumer above ``LIMIT``.
HIGH_WATER = 64 * 1024
RESUME = 16 * 1024
LIMIT = 4 * 1024 * 1024


class LoopTimers(Timers):
    """Blocking-request timeouts on the event loop (``loop.call_later``).

    The returned ``TimerHandle`` exposes ``cancel()`` — exactly the
    :class:`~repro.core.server.Timers` handle protocol — and the
    callback runs on the loop thread, serialised with request dispatch.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop

    def call_later(self, delay: float, fn) -> asyncio.TimerHandle:
        return self._loop.call_later(delay, fn)


class _AsyncConnection:
    """One client connection: parser, outbox, reader + writer tasks.

    Duck-typed over ``(reader, writer)`` so the same machinery serves
    real TCP streams and the in-loop :func:`memory_pipe` endpoints the
    concurrency benchmark multiplexes by the thousands.

    This object is also the *session* handed to ``SpaceServer.handle``:
    ``send`` encodes with the connection's negotiated codec and appends
    to the outbox.
    """

    def __init__(self, front, reader, writer):
        self.front = front
        self.reader = reader
        self.writer = writer
        self.registry: XmlCodec = front.server.codec
        self.wire = make_wire_codec("xml", self.registry)
        self.parser = StreamParser(self.registry)
        self._outbox = bytearray()
        self._loop = front._loop
        self._send_waiter: Optional[asyncio.Future] = None
        self._resume_waiter: Optional[asyncio.Future] = None
        self._eof = False
        self._closed = False
        self._writer_task: Optional[asyncio.Task] = None
        self._reader_task: Optional[asyncio.Task] = None

    # -- session protocol (called by SpaceServer and timer callbacks) -------

    def send(self, message: Message) -> None:
        if self._closed:
            return
        self.enqueue(encode_message(message, self.wire))

    def enqueue(self, data: bytes) -> None:
        self._outbox += data
        if len(self._outbox) > self.front.limit_bytes:
            # Slow consumer: notify events kept arriving while the peer
            # stopped draining.  Dropping the connection bounds memory;
            # buffering forever would not.
            self.front.slow_consumer_closes += 1
            self._begin_close()
            return
        waiter = self._send_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- tasks ---------------------------------------------------------------

    async def run(self) -> None:
        """Read/dispatch until EOF or close, then flush and tear down."""
        self._writer_task = self._loop.create_task(self._write_loop())
        self._reader_task = self._loop.create_task(self._read_loop())
        try:
            # _begin_close (shutdown, slow-consumer cap) cancels the
            # reader task, so a read parked on an idle socket never
            # wedges teardown.
            await self._reader_task
        except asyncio.CancelledError:
            pass
        finally:
            self._begin_close()
            try:
                await asyncio.wait_for(
                    self._writer_task, self.front.drain_grace
                )
            except (asyncio.TimeoutError, asyncio.CancelledError, OSError):
                self._writer_task.cancel()
            self.front._connection_done(self)

    async def _read_loop(self) -> None:
        while not self._eof:
            try:
                data = await self.reader.read(65536)
            except (OSError, ConnectionError, asyncio.IncompleteReadError):
                return
            if not data:
                return
            self.front.bytes_in += len(data)
            try:
                messages = self.parser.feed(data)
            except ProtocolError as exc:
                # A malformed frame answers ERROR when a request id is
                # recoverable, then the connection closes cleanly.
                self.front.protocol_errors += 1
                request_id = self.parser.error_request_id
                if request_id is not None:
                    self.send(Message(
                        MessageType.ERROR, request_id, {"text": str(exc)}
                    ))
                return
            for message in messages:
                self._dispatch(message)
                if self._eof:
                    return
            if len(self._outbox) > self.front.high_water:
                # Backpressure: stop reading this connection's requests
                # until the writer drains its responses.
                self.front.backpressure_pauses += 1
                self._resume_waiter = self._loop.create_future()
                await self._resume_waiter

    def _dispatch(self, message: Message) -> None:
        self.front.requests += 1
        if message.msg_type is MessageType.HELLO:
            chosen = negotiate_codec(message.params.get("codecs", "")) or "xml"
            self.send(Message(
                MessageType.HELLO_ACK, message.request_id, {"codec": chosen}
            ))
            wire = make_wire_codec(chosen, self.registry)
            self.parser.set_codec(wire)
            self.wire = wire
            self.front.negotiated[chosen] = (
                self.front.negotiated.get(chosen, 0) + 1
            )
            return
        if message.msg_type is MessageType.STATS:
            self.send(Message(
                MessageType.STATS_ACK, message.request_id, self.front.stats()
            ))
            return
        self.front.server.handle(self, message)

    async def _write_loop(self) -> None:
        writer = self.writer
        try:
            while True:
                if not self._outbox:
                    if self._eof:
                        return
                    self._send_waiter = self._loop.create_future()
                    await self._send_waiter
                    continue
                chunk = bytes(self._outbox)
                del self._outbox[: len(chunk)]
                writer.write(chunk)
                await writer.drain()
                self.front.bytes_out += len(chunk)
                resume = self._resume_waiter
                if (
                    resume is not None
                    and not resume.done()
                    and len(self._outbox) <= self.front.resume_bytes
                ):
                    resume.set_result(None)
        except (OSError, ConnectionError):
            return

    # -- teardown ------------------------------------------------------------

    def _begin_close(self) -> None:
        """Stop reading, let the writer flush what is queued, then die."""
        if self._closed:
            return
        self._closed = True
        self._eof = True
        for waiter in (self._send_waiter, self._resume_waiter):
            if waiter is not None and not waiter.done():
                waiter.set_result(None)
        reader_task = self._reader_task
        if reader_task is not None and not reader_task.done():
            reader_task.cancel()
        # Reap parked blocking requests: a dead connection's TAKE must
        # never consume a tuple into the void.
        self.front.server.session_closed(self)


class AsyncSpaceServer:
    """Asyncio front end over a :class:`SpaceServer`.

    Usage::

        front = AsyncSpaceServer(space_server, port=0)
        await front.start()
        ...                       # front.address is the bound (host, port)
        await front.stop()

    ``health_port`` additionally binds a minimal HTTP listener answering
    ``GET /health`` and ``GET /stats`` with JSON, so a supervisor can
    probe the daemon without speaking the space protocol.
    """

    def __init__(
        self,
        server: SpaceServer,
        host: str = "127.0.0.1",
        port: int = 0,
        health_port: Optional[int] = None,
        high_water: int = HIGH_WATER,
        resume_bytes: int = RESUME,
        limit_bytes: int = LIMIT,
        drain_grace: float = 2.0,
    ):
        self.server = server
        self.host = host
        self.port = port
        self.health_port = health_port
        self.high_water = high_water
        self.resume_bytes = resume_bytes
        self.limit_bytes = limit_bytes
        self.drain_grace = drain_grace
        self.address = None
        self.health_address = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listener: Optional[asyncio.AbstractServer] = None
        self._health_listener: Optional[asyncio.AbstractServer] = None
        self._connections: dict[int, _AsyncConnection] = {}
        self._conn_tasks: dict[int, asyncio.Task] = {}
        self._stopping = False
        # -- counters surfaced by /stats and the STATS message
        self.connections_total = 0
        self.requests = 0
        self.protocol_errors = 0
        self.slow_consumer_closes = 0
        self.backpressure_pauses = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.negotiated: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "AsyncSpaceServer":
        self._loop = asyncio.get_running_loop()
        # All dispatch and every timeout callback runs on this loop —
        # the single-threaded-engine invariant, without locks.
        self.server.timers = LoopTimers(self._loop)
        self._listener = await asyncio.start_server(
            self._client_connected, self.host, self.port
        )
        self.address = self._listener.sockets[0].getsockname()
        if self.health_port is not None:
            self._health_listener = await asyncio.start_server(
                self._health_connected, self.host, self.health_port
            )
            self.health_address = self._health_listener.sockets[0].getsockname()
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, flush and close every
        connection (reaping its parked waiters), release the ports."""
        self._stopping = True
        for listener in (self._listener, self._health_listener):
            if listener is not None:
                listener.close()
        for conn in list(self._connections.values()):
            conn._begin_close()
        tasks = list(self._conn_tasks.values())
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for listener in (self._listener, self._health_listener):
            if listener is not None:
                await listener.wait_closed()

    async def __aenter__(self) -> "AsyncSpaceServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- connections ---------------------------------------------------------

    def _client_connected(self, reader, writer) -> None:
        if self._stopping:
            writer.close()
            return
        self._track(_AsyncConnection(self, reader, writer))

    def open_local(self):
        """In-loop loopback connect: no socket, no file descriptor.

        Returns a ``(reader, writer)`` pair speaking to a fresh server
        connection — what the 10k-client concurrency benchmark uses to
        go beyond the process fd limit.  Must run inside the loop that
        :meth:`start` ran on (or pass the pair to
        :class:`AsyncSpaceClient` in the same loop).
        """
        client_reader, server_writer = memory_pipe(self._loop)
        server_reader, client_writer = memory_pipe(self._loop)
        self._track(_AsyncConnection(self, server_reader, server_writer))
        return client_reader, client_writer

    def _track(self, conn: _AsyncConnection) -> None:
        self.connections_total += 1
        self._connections[id(conn)] = conn
        self._conn_tasks[id(conn)] = self._loop.create_task(conn.run())

    def _connection_done(self, conn: _AsyncConnection) -> None:
        self._connections.pop(id(conn), None)
        self._conn_tasks.pop(id(conn), None)
        try:
            conn.writer.close()
        except (OSError, RuntimeError):
            pass

    @property
    def connections_open(self) -> int:
        return len(self._connections)

    # -- stats / health ------------------------------------------------------

    def stats(self) -> dict:
        """Flat scalar counters (STATS message params / ``/stats`` JSON)."""
        return {
            "connections_open": self.connections_open,
            "connections_total": self.connections_total,
            "requests": self.requests,
            "requests_handled": self.server.requests_handled,
            "errors_sent": self.server.errors_sent,
            "waiters_reaped": self.server.waiters_reaped,
            "protocol_errors": self.protocol_errors,
            "slow_consumer_closes": self.slow_consumer_closes,
            "backpressure_pauses": self.backpressure_pauses,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "negotiated_binary": self.negotiated.get("binary", 0),
            "negotiated_xml": self.negotiated.get("xml", 0),
        }

    async def _health_connected(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else "/"
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            if path == "/health":
                status, payload = "200 OK", {"status": "ok"}
            elif path == "/stats":
                status, payload = "200 OK", self.stats()
            else:
                status, payload = "404 Not Found", {"error": "not found"}
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n".encode("latin-1") + body
            )
            await writer.drain()
        except (OSError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
            except (OSError, RuntimeError):
                pass


class AsyncSpaceClient:
    """Pipelined asyncio client: many requests in flight per connection.

    Unlike the strictly-sequential :class:`~repro.core.client.SpaceClient`
    (the paper's embedded client), this one multiplexes: each request
    gets a future keyed by its (wrap-safe) id, and one reader task
    resolves them as responses arrive, dispatching interleaved
    ``NOTIFY_EVENT`` messages to registered callbacks on the way.
    """

    def __init__(
        self,
        reader,
        writer,
        codec: XmlCodec,
        request_timeout: Optional[float] = None,
    ):
        self.reader = reader
        self.writer = writer
        self.codec = codec
        self.request_timeout = request_timeout
        self.wire_codec = "xml"
        self._wire = make_wire_codec("xml", codec)
        self._parser = StreamParser(codec)
        self._loop = asyncio.get_running_loop()
        self._pending: dict[int, asyncio.Future] = {}
        self._notify_handlers: dict[int, Callable] = {}
        self._next_request_id = 0
        self._closed = False
        self.requests_sent = 0
        self.events_received = 0
        self.stale_responses = 0
        self._reader_task = self._loop.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        address,
        codec: XmlCodec,
        codecs: Optional[str] = "binary,xml",
        request_timeout: Optional[float] = None,
    ) -> "AsyncSpaceClient":
        """Open a TCP connection; negotiate unless ``codecs`` is None."""
        host, port = address
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, codec, request_timeout=request_timeout)
        if codecs is not None:
            await client.negotiate(codecs)
        return client

    # -- space operations ----------------------------------------------------

    async def negotiate(self, codecs: str = "binary,xml") -> str:
        """The HELLO exchange (``SpaceClient.hello``'s async counterpart)."""
        reply = await self._request(MessageType.HELLO, {"codecs": codecs})
        self._expect(reply, MessageType.HELLO_ACK)
        chosen = reply.params.get("codec", "xml")
        if chosen != self.wire_codec:
            self._wire = make_wire_codec(chosen, self.codec)
            self._parser.set_codec(self._wire)
            self.wire_codec = chosen
        return chosen

    async def write(
        self,
        entry: Any,
        lease: Optional[float] = None,
        created_at: Optional[float] = None,
        op_key: Optional[str] = None,
    ) -> dict:
        params = {}
        if lease is not None:
            params["lease"] = lease
        if created_at is not None:
            params["created_at"] = created_at
        if op_key is not None:
            params["op_key"] = op_key
        reply = await self._request(MessageType.WRITE, params, entry)
        self._expect(reply, MessageType.WRITE_ACK)
        return {
            "lease_id": reply.param_int("lease_id"),
            "granted": reply.param_float("granted"),
            "dup": bool(reply.param_int("dup")),
        }

    async def read(self, template: Any, timeout: Optional[float] = None):
        return await self._blocking(MessageType.READ, template, timeout)

    async def take(self, template: Any, timeout: Optional[float] = None):
        return await self._blocking(MessageType.TAKE, template, timeout)

    async def read_if_exists(self, template: Any):
        reply = await self._request(MessageType.READ_IF_EXISTS, {}, template)
        return self._result(reply)

    async def take_if_exists(self, template: Any):
        reply = await self._request(MessageType.TAKE_IF_EXISTS, {}, template)
        return self._result(reply)

    async def notify(
        self,
        template: Any,
        callback: Callable[[Message], None],
        lease: Optional[float] = None,
    ) -> dict:
        params = {} if lease is None else {"lease": lease}
        reply = await self._request(MessageType.NOTIFY_REGISTER, params, template)
        self._expect(reply, MessageType.NOTIFY_ACK)
        registration_id = reply.param_int("registration_id")
        self._notify_handlers[registration_id] = callback
        return {
            "registration_id": registration_id,
            "lease_id": reply.param_int("lease_id"),
        }

    async def cancel_lease(self, lease_id: int) -> None:
        reply = await self._request(
            MessageType.CANCEL_LEASE, {"lease_id": lease_id}
        )
        self._expect(reply, MessageType.LEASE_ACK)

    async def renew_lease(self, lease_id: int, duration: float) -> float:
        reply = await self._request(
            MessageType.RENEW_LEASE,
            {"lease_id": lease_id, "duration": duration},
        )
        self._expect(reply, MessageType.LEASE_ACK)
        return reply.param_float("remaining")

    async def ping(self) -> bool:
        reply = await self._request(MessageType.PING, {})
        return reply.msg_type is MessageType.PONG

    async def stats(self) -> dict:
        reply = await self._request(MessageType.STATS, {})
        self._expect(reply, MessageType.STATS_ACK)
        return dict(reply.params)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        self._fail_pending(ConnectionClosedError("client closed"))
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (OSError, ConnectionError, RuntimeError):
            pass

    # -- plumbing ------------------------------------------------------------

    async def _blocking(self, msg_type, template, timeout):
        params = {} if timeout is None else {"timeout": timeout}
        reply = await self._request(msg_type, params, template)
        return self._result(reply)

    def _result(self, reply: Message):
        if reply.msg_type is MessageType.RESULT_NULL:
            return None
        self._expect(reply, MessageType.RESULT_ENTRY)
        return reply.item

    async def _request(self, msg_type, params: dict, item: Any = None) -> Message:
        if self._closed:
            raise ConnectionClosedError("client is closed")
        self._next_request_id = (
            self._next_request_id + 1
        ) % REQUEST_ID_MODULUS or 1
        request_id = self._next_request_id
        future = self._loop.create_future()
        self._pending[request_id] = future
        message = Message(msg_type, request_id, params, item)
        try:
            self.writer.write(encode_message(message, self._wire))
            await self.writer.drain()
        except (OSError, ConnectionError):
            self._pending.pop(request_id, None)
            raise ConnectionClosedError("connection closed mid-request")
        self.requests_sent += 1
        try:
            if self.request_timeout is None:
                return await future
            try:
                return await asyncio.wait_for(future, self.request_timeout)
            except asyncio.TimeoutError:
                # Same contract as the sync client; the response, if it
                # ever arrives, is counted stale by the reader task.
                raise RequestTimeoutError(
                    f"no response to request {request_id} within "
                    f"{self.request_timeout}s"
                )
        finally:
            self._pending.pop(request_id, None)

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self.reader.read(65536)
                if not data:
                    self._fail_pending(
                        ConnectionClosedError("connection closed mid-request")
                    )
                    return
                for message in self._parser.feed(data):
                    self._deliver(message)
        except (OSError, ConnectionError, asyncio.CancelledError):
            self._fail_pending(
                ConnectionClosedError("connection closed mid-request")
            )

    def _deliver(self, message: Message) -> None:
        if message.msg_type is MessageType.NOTIFY_EVENT:
            self.events_received += 1
            handler = self._notify_handlers.get(
                message.param_int("registration_id")
            )
            if handler is not None:
                handler(message)
            return
        future = self._pending.get(message.request_id)
        if future is None or future.done():
            if message.msg_type is MessageType.ERROR and message.request_id == 0:
                self._fail_pending(
                    SpaceError(message.params.get("text", "server error"))
                )
            else:
                self.stale_responses += 1
            return
        if message.msg_type is MessageType.ERROR:
            future.set_exception(
                SpaceError(message.params.get("text", "server error"))
            )
        else:
            future.set_result(message)

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    def _expect(self, reply: Message, expected: MessageType) -> None:
        if reply.msg_type is not expected:
            raise ProtocolError(
                f"expected {expected.name}, got {reply.msg_type.name}"
            )


# -- in-loop byte pipes ------------------------------------------------------


class _MemoryReader:
    """Reader half of :func:`memory_pipe` (``await read(n)``)."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._buffer = bytearray()
        self._eof = False
        self._waiter: Optional[asyncio.Future] = None

    def _feed(self, data: bytes) -> None:
        self._buffer += data
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _feed_eof(self) -> None:
        self._eof = True
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def read(self, max_bytes: int = 65536) -> bytes:
        while not self._buffer:
            if self._eof:
                return b""
            self._waiter = self._loop.create_future()
            await self._waiter
        chunk = bytes(self._buffer[:max_bytes])
        del self._buffer[: len(chunk)]
        return chunk


class _MemoryWriter:
    """Writer half: quacks like ``asyncio.StreamWriter`` where needed."""

    def __init__(self, peer: _MemoryReader):
        self._peer = peer
        self._closed = False

    def write(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionClosedError("memory pipe closed")
        self._peer._feed(data)

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer._feed_eof()

    async def wait_closed(self) -> None:
        return None

    def is_closing(self) -> bool:
        return self._closed


def memory_pipe(loop: asyncio.AbstractEventLoop):
    """One-directional in-loop byte pipe: ``(reader, writer)``.

    No socket, no fd — which is what lets the concurrency benchmark run
    10k+ simulated client connections in one process.
    """
    reader = _MemoryReader(loop)
    return reader, _MemoryWriter(reader)


__all__ = [
    "AsyncSpaceServer",
    "AsyncSpaceClient",
    "LoopTimers",
    "memory_pipe",
]
