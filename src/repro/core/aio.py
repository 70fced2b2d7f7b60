"""Asyncio wire front end: the space server's one TCP front end.

:class:`AsyncSpaceServer` is the paper's socket wrapper (Sec. 4.2,
Figure 4): a client that sends no HELLO speaks the historical XML wire
protocol to it unchanged.  It sits on a
:class:`~repro.core.server.SpaceServer` — the space engine stays
single-threaded, the loop multiplexes connections around it.  Each
connection is an :class:`asyncio.BufferedProtocol` served from the
transport's callbacks, with no task of its own:

* **one write per read** — every frame completed by one socket read is
  dispatched back-to-back, and the replies it produced leave in one
  ``transport.write``; a reply sent outside a read (a timer-driven
  timeout, a notify event caused by another connection) is written at
  once.  Frames never interleave because each write is whole frames;
* **backpressure** — the transport's write-buffer limits pause reading
  a connection above the high-water mark and resume it below the
  resume mark (TCP pushes back on the client); a consumer so slow its
  buffer passes the hard cap is closed and counted, never buffered
  without bound;
* **codec negotiation** — the HELLO/HELLO_ACK exchange of
  :mod:`repro.core.protocol` switches a connection from XML to the
  binary body codec;
* **graceful shutdown** — ``stop()`` parks no request forever (waiters
  are reaped through ``session_closed``) and gives every connection
  ``drain_grace`` seconds to flush; the in-band ``STATS`` message
  reports the front end's counters.

Timer callbacks run on the loop via :class:`LoopTimers`, so — like the
simulated stack — *everything* touching the space runs on one thread
and no locks are needed.  See docs/wire.md for the full protocol story.
"""

from __future__ import annotations

import asyncio
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

#: Write-buffer byte thresholds: pause reading a connection above
#: ``HIGH_WATER``, resume below ``RESUME``, close a slow consumer above
#: ``LIMIT``.
HIGH_WATER = 64 * 1024
RESUME = 16 * 1024
LIMIT = 4 * 1024 * 1024
#: Largest single socket read (asyncio's own ``recv`` size).
RECEIVE_BYTES = 256 * 1024


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


class _AsyncConnection(asyncio.BufferedProtocol):
    """One client connection, served from its transport's callbacks.

    Reads land in the front end's one receive buffer (``get_buffer``)
    and are fed to the parser before the callback returns, so no read
    allocates a fresh 256 KiB ``bytes`` as ``sock.recv`` does.

    This object is also the *session* handed to ``SpaceServer.handle``:
    ``send`` encodes with the connection's negotiated codec and either
    joins the replies of the read being served or, outside a read, is
    written at once.
    """

    def __init__(self, front: "AsyncSpaceServer"):
        self.front = front
        self.registry: XmlCodec = front.server.codec
        self.wire = make_wire_codec("xml", self.registry)
        self.parser = StreamParser(self.registry)
        self.transport: Optional[asyncio.Transport] = None
        #: Replies of the read being served; ``None`` between reads.
        self._replies: Optional[list] = None
        self._closed = False

    # -- session protocol (called by SpaceServer and timer callbacks) -------

    def send(self, message: Message) -> None:
        if self._closed:
            return
        data = encode_message(message, self.wire)
        if self._replies is not None:
            self._replies.append(data)
        else:
            self._write(data)

    def _write(self, data: bytes) -> None:
        transport = self.transport
        transport.write(data)
        front = self.front
        front.bytes_out += len(data)
        if transport.get_write_buffer_size() > front.limit_bytes:
            # Slow consumer: replies kept arriving while the peer
            # stopped draining.  Dropping the connection bounds memory;
            # buffering forever would not, and neither would a flush.
            front.slow_consumer_closes += 1
            self._begin_close()
            transport.abort()

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        transport.set_write_buffer_limits(
            self.front.high_water, self.front.resume_bytes
        )
        self.front._connection_made(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.front._receive_buffer

    def buffer_updated(self, nbytes: int) -> None:
        front = self.front
        front.bytes_in += nbytes
        error = None
        try:
            messages = self.parser.feed(front._receive_buffer[:nbytes])
        except ProtocolError as exc:
            # The frames ahead of the malformed one are served first;
            # then ERROR when a request id is recoverable, and close.
            messages, error = exc.messages, exc
        self._replies = replies = []
        for message in messages:
            self._dispatch(message)
        if error is not None:
            front.protocol_errors += 1
            request_id = self.parser.error_request_id
            if request_id is not None:
                self.send(Message(
                    MessageType.ERROR, request_id, {"text": str(error)}
                ))
        self._replies = None
        if replies:
            self._write(b"".join(replies))
        if error is not None:
            self._begin_close()

    def eof_received(self) -> None:
        self._begin_close()

    def pause_writing(self) -> None:
        # Backpressure: stop reading this connection's requests until
        # the transport drains its replies below the resume mark.
        self.front.backpressure_pauses += 1
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._begin_close()
        self.front._connection_lost(self)

    # -- dispatch and teardown -------------------------------------------

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

    def _begin_close(self) -> None:
        """Stop serving: reap parked waiters once, then close the
        transport, which flushes what is buffered before it is lost."""
        if self._closed:
            return
        self._closed = True
        # Reap parked blocking requests: a dead connection's TAKE must
        # never consume a tuple into the void.
        self.front.server.session_closed(self)
        self.transport.close()


class AsyncSpaceServer:
    """Asyncio front end over a :class:`SpaceServer`.

    Usage::

        front = AsyncSpaceServer(space_server, port=0)
        await front.start()
        ...                       # front.address is the bound (host, port)
        await front.stop()
    """

    def __init__(
        self,
        server: SpaceServer,
        host: str = "127.0.0.1",
        port: int = 0,
        high_water: int = HIGH_WATER,
        resume_bytes: int = RESUME,
        limit_bytes: int = LIMIT,
        drain_grace: float = 2.0,
    ):
        self.server = server
        self.host = host
        self.port = port
        self.high_water = high_water
        self.resume_bytes = resume_bytes
        self.limit_bytes = limit_bytes
        self.drain_grace = drain_grace
        self.address = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listener: Optional[asyncio.AbstractServer] = None
        self._connections: set[_AsyncConnection] = set()
        #: Shared by every connection: the loop serves one read at a
        #: time and the parser copies what it keeps.
        self._receive_buffer = memoryview(bytearray(RECEIVE_BYTES))
        #: Resolved by the last ``connection_lost`` while ``stop()`` waits.
        self._all_lost: Optional[asyncio.Future] = None
        self._stopping = False
        # -- counters surfaced by the STATS message
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
        self._listener = await self._loop.create_server(
            lambda: _AsyncConnection(self), self.host, self.port
        )
        self.address = self._listener.sockets[0].getsockname()
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, flush and close every
        connection (reaping its parked waiters), release the port."""
        self._stopping = True
        if self._listener is not None:
            self._listener.close()
        for conn in list(self._connections):
            conn._begin_close()
        if self._connections:
            self._all_lost = self._loop.create_future()
            deadline = self._loop.call_later(
                self.drain_grace, self._abort_connections
            )
            await self._all_lost
            deadline.cancel()
        if self._listener is not None:
            await self._listener.wait_closed()

    async def __aenter__(self) -> "AsyncSpaceServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- connections ---------------------------------------------------------

    def _connection_made(self, conn: _AsyncConnection) -> None:
        self.connections_total += 1
        self._connections.add(conn)
        if self._stopping:
            conn._begin_close()

    def _abort_connections(self) -> None:
        """The drain grace ran out: peers that never drained lose what
        is still buffered."""
        for conn in list(self._connections):
            conn.transport.abort()

    def _connection_lost(self, conn: _AsyncConnection) -> None:
        self._connections.discard(conn)
        waiter = self._all_lost
        if waiter is not None and not self._connections and not waiter.done():
            waiter.set_result(None)

    @property
    def connections_open(self) -> int:
        return len(self._connections)

    def stats(self) -> dict:
        """Flat scalar counters (the STATS message's params)."""
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


__all__ = [
    "AsyncSpaceServer",
    "AsyncSpaceClient",
    "LoopTimers",
]
