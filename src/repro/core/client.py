"""Synchronous space client (the "C++ client" of the paper, host flavour).

Speaks the XML wire protocol over any connection exposing ``send_bytes``
/ ``recv_bytes`` — a TCP socket, the in-process loopback, or anything
byte-stream shaped.  The client keeps one outstanding request at a time
(the embedded client of the paper is likewise strictly sequential);
asynchronous NOTIFY_EVENT messages interleaved with responses are
dispatched to registered callbacks.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.clock import Clock, SystemClock
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
)
from repro.core.xmlcodec import XmlCodec


class SpaceClient:
    """Blocking client for a remote space server."""

    def __init__(
        self,
        connection,
        codec: XmlCodec,
        poll_interval: float = 0.005,
        clock: Optional[Clock] = None,
        request_timeout: Optional[float] = None,
    ):
        """``clock`` paces the response polling loop.

        Defaults to the wall clock; inject a
        :class:`~repro.core.clock.ManualClock` (tests) or any other
        :class:`~repro.core.clock.Clock` to make polling deterministic.

        ``request_timeout`` bounds how long a request may poll for its
        response before raising :class:`RequestTimeoutError` — without
        it a dropped response means polling forever.  ``None`` keeps the
        historical wait-forever behaviour.
        """
        self.connection = connection
        self.codec = codec
        self.poll_interval = poll_interval
        self.clock = clock if clock is not None else SystemClock()
        self.request_timeout = request_timeout
        self._parser = StreamParser(codec)
        self._wire = make_wire_codec("xml", codec)
        self.wire_codec = "xml"
        self._next_request_id = 0
        self._notify_handlers: dict[int, Callable] = {}
        self.requests_sent = 0
        self.events_received = 0
        #: Responses for earlier requests (duplicates, or replies that
        #: arrived after their request timed out), discarded on sight.
        self.stale_responses = 0

    # -- space operations ---------------------------------------------------

    def write(
        self,
        entry: Any,
        lease: Optional[float] = None,
        created_at: Optional[float] = None,
        op_key: Optional[str] = None,
    ) -> dict:
        """Write an entry; returns ``{"lease_id": ..., "granted": ..., "dup": ...}``.

        ``created_at`` (a clock-synchronized timestamp) makes the entry's
        lifetime count from its creation at the client rather than from
        its arrival at the server.

        ``op_key`` is an idempotency key: retrying the write with the
        same key after a lost acknowledgement returns the original grant
        (``dup`` True) instead of storing a second tuple.
        """
        params = {}
        if lease is not None:
            params["lease"] = lease
        if created_at is not None:
            params["created_at"] = created_at
        if op_key is not None:
            params["op_key"] = op_key
        reply = self._request(MessageType.WRITE, params, entry)
        self._expect(reply, MessageType.WRITE_ACK)
        return {
            "lease_id": reply.param_int("lease_id"),
            "granted": reply.param_float("granted"),
            "dup": bool(reply.param_int("dup")),
        }

    def read(self, template: Any, timeout: Optional[float] = None) -> Optional[Any]:
        """Blocking read; ``None`` when the server times out the request."""
        return self._blocking(MessageType.READ, template, timeout)

    def take(self, template: Any, timeout: Optional[float] = None) -> Optional[Any]:
        """Blocking take; ``None`` when the server times out the request."""
        return self._blocking(MessageType.TAKE, template, timeout)

    def read_if_exists(self, template: Any) -> Optional[Any]:
        reply = self._request(MessageType.READ_IF_EXISTS, {}, template)
        return self._result(reply)

    def take_if_exists(self, template: Any) -> Optional[Any]:
        reply = self._request(MessageType.TAKE_IF_EXISTS, {}, template)
        return self._result(reply)

    def notify(
        self,
        template: Any,
        callback: Callable[[Message], None],
        lease: Optional[float] = None,
    ) -> dict:
        """Subscribe; ``callback(message)`` runs for each NOTIFY_EVENT."""
        params = {} if lease is None else {"lease": lease}
        reply = self._request(MessageType.NOTIFY_REGISTER, params, template)
        self._expect(reply, MessageType.NOTIFY_ACK)
        registration_id = reply.param_int("registration_id")
        self._notify_handlers[registration_id] = callback
        return {
            "registration_id": registration_id,
            "lease_id": reply.param_int("lease_id"),
        }

    def cancel_lease(self, lease_id: int) -> None:
        reply = self._request(MessageType.CANCEL_LEASE, {"lease_id": lease_id})
        self._expect(reply, MessageType.LEASE_ACK)

    def renew_lease(self, lease_id: int, duration: float) -> float:
        reply = self._request(
            MessageType.RENEW_LEASE,
            {"lease_id": lease_id, "duration": duration},
        )
        self._expect(reply, MessageType.LEASE_ACK)
        return reply.param_float("remaining")

    def ping(self) -> bool:
        reply = self._request(MessageType.PING, {})
        return reply.msg_type is MessageType.PONG

    def hello(self, codecs: str = "binary,xml") -> str:
        """Negotiate the body codec; returns the server's pick.

        Must be the first request on the connection (both sides switch
        encodings right after the HELLO/HELLO_ACK pair, so frames from
        earlier requests could otherwise still be in flight).  Servers
        predating the exchange answer ERROR; the client then simply
        stays on XML.
        """
        try:
            reply = self._request(MessageType.HELLO, {"codecs": codecs})
        except SpaceError:
            return self.wire_codec
        self._expect(reply, MessageType.HELLO_ACK)
        chosen = reply.params.get("codec", "xml")
        if chosen != self.wire_codec:
            self._wire = make_wire_codec(chosen, self.codec)
            self._parser.set_codec(self._wire)
            self.wire_codec = chosen
        return chosen

    def poll_events(self) -> int:
        """Drain pending notify events without issuing a request.

        Never blocks: connections exposing ``recv_ready()`` (sockets,
        the loopback) are only read when bytes are already pending —
        a bare blocking ``recv`` here used to park the caller forever
        when no event had arrived.
        """
        ready = getattr(self.connection, "recv_ready", None)
        if ready is not None and not ready():
            return 0
        dispatched = 0
        for message in self._parser.feed(self.connection.recv_bytes()):
            if message.msg_type is not MessageType.NOTIFY_EVENT:
                self.stale_responses += 1
                continue
            self._dispatch_event(message)
            dispatched += 1
        return dispatched

    # -- plumbing -----------------------------------------------------------------

    def _blocking(self, msg_type: MessageType, template: Any, timeout) -> Optional[Any]:
        params = {} if timeout is None else {"timeout": timeout}
        reply = self._request(msg_type, params, template)
        return self._result(reply)

    def _result(self, reply: Message) -> Optional[Any]:
        if reply.msg_type is MessageType.RESULT_NULL:
            return None
        self._expect(reply, MessageType.RESULT_ENTRY)
        return reply.item

    def _request(self, msg_type: MessageType, params: dict, item: Any = None) -> Message:
        # The header packs ids as >I: wrap modulo 2^32 (skipping 0, which
        # ERROR replies use when no request id was recoverable) instead of
        # letting request 2^32 die with a struct.error mid-stream.
        self._next_request_id = (self._next_request_id + 1) % REQUEST_ID_MODULUS or 1
        request_id = self._next_request_id
        message = Message(msg_type, request_id, params, item)
        self.connection.send_bytes(encode_message(message, self._wire))
        self.requests_sent += 1
        return self._await_response(request_id)

    def _await_response(self, request_id: int) -> Message:
        deadline = (
            None
            if self.request_timeout is None
            else self.clock.now() + self.request_timeout
        )
        while True:
            started = self.clock.now()
            data = self.connection.recv_bytes()
            if not data:
                if getattr(self.connection, "closed", False):
                    raise ConnectionClosedError("connection closed mid-request")
                now = self.clock.now()
                if deadline is not None and now >= deadline:
                    raise RequestTimeoutError(
                        f"no response to request {request_id} within "
                        f"{self.request_timeout}s"
                    )
                # Sleep only what the read did not already wait: a socket
                # read parks in a bounded select that a reply ends at once.
                rest = self.poll_interval - (now - started)
                if rest > 0:
                    self.clock.sleep(rest)
                continue
            for message in self._parser.feed(data):
                if message.msg_type is MessageType.NOTIFY_EVENT:
                    self._dispatch_event(message)
                    continue
                if message.request_id == request_id:
                    if message.msg_type is MessageType.ERROR:
                        raise SpaceError(message.params.get("text", "server error"))
                    return message
                if (
                    message.msg_type is MessageType.ERROR
                    and message.request_id == 0
                ):
                    # Connection-fatal server error (a frame so broken no
                    # request id was recoverable); the close follows.
                    raise SpaceError(message.params.get("text", "server error"))
                # Wrap-safe ordering: a response is *stale* when its id
                # sits behind ours in the modular half-window (duplicated,
                # or arrived after its request timed out) — a plain `<`
                # would misclassify everything straddling the 2^32 wrap.
                behind = (request_id - message.request_id) % REQUEST_ID_MODULUS
                if 0 < behind < REQUEST_ID_MODULUS // 2:
                    self.stale_responses += 1
                    continue
                raise ProtocolError(
                    f"response for unknown request {message.request_id}"
                )

    def _dispatch_event(self, message: Message) -> None:
        self.events_received += 1
        registration_id = message.param_int("registration_id")
        handler = self._notify_handlers.get(registration_id)
        if handler is not None:
            handler(message)

    def _expect(self, reply: Message, expected: MessageType) -> None:
        if reply.msg_type is not expected:
            raise ProtocolError(
                f"expected {expected.name}, got {reply.msg_type.name}"
            )
