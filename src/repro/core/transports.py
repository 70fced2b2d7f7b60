"""Client-side transports to the space server.

Three ways to reach a :class:`~repro.core.server.SpaceServer`:

* :class:`LocalConnection` — synchronous in-process loopback (hermetic
  unit tests; no sockets);
* :func:`open_socket_connection` — a real TCP connection to
  :class:`~repro.core.aio.AsyncSpaceServer`, the paper's socket wrapper
  (Figure 4), which speaks the XML wire protocol to every client that
  sends no HELLO;
* the TpWIRE bridges in :mod:`repro.cosim` (Figure 5) for the
  co-simulated embedded path.

All three speak the same wire protocol; the local server is reached
through an RMI proxy, mirroring the paper's server-internal RMI hop.
"""

from __future__ import annotations

import select
import socket
import threading
from typing import Optional

from repro.core.errors import ConnectionClosedError
from repro.core.protocol import Message, StreamParser, encode_message
from repro.core.rmi import Registry
from repro.core.server import SpaceServer
from repro.core.xmlcodec import XmlCodec

#: Longest a :class:`SocketConnection` read waits for bytes before it
#: hands control back (empty) so the client can check its deadline.
RECV_WAIT = 0.05


class _ProxySession:
    """Session whose ``send`` encodes and forwards to a byte sink."""

    def __init__(self, codec: XmlCodec, sink):
        self.codec = codec
        self.sink = sink

    def send(self, message: Message) -> None:
        self.sink(encode_message(message, self.codec))


class LocalConnection:
    """Synchronous in-process connection to a space server.

    ``send_bytes`` dispatches requests straight into the server (through
    its RMI proxy); responses accumulate in an internal buffer that
    ``recv_bytes`` drains.  The buffer is locked because deliveries are
    not always made by this connection's caller: a request on another
    connection to the same server (a ``write`` that releases a take
    parked here, or fires a notify registered here) delivers into this
    buffer from whichever thread sent that request.
    """

    def __init__(self, server: SpaceServer, registry: Optional[Registry] = None):
        self.codec = server.codec
        self._server = server
        if registry is None:
            registry = Registry()
            registry.bind("SpaceServer", server, exposed=["handle"])
        self._proxy = registry.lookup("SpaceServer")
        self._parser = StreamParser(self.codec)
        self._rx = bytearray()  # guarded by self._lock
        self._lock = threading.Lock()
        self.closed = False
        self._session = _ProxySession(self.codec, self._deliver)

    def _deliver(self, data: bytes) -> None:
        with self._lock:
            self._rx.extend(data)

    def send_bytes(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionClosedError("connection is closed")
        for message in self._parser.feed(data):
            self._proxy.handle(self._session, message)

    def recv_bytes(self, max_bytes: int = 65536) -> bytes:
        with self._lock:
            data = bytes(self._rx[:max_bytes])
            del self._rx[: len(data)]
        return data

    def recv_ready(self) -> bool:
        """Bytes pending?  (Non-blocking drain for ``poll_events``.)"""
        with self._lock:
            return bool(self._rx)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # Reap blocking requests parked by this session: a closed
        # connection must never consume a later write.
        self._server.session_closed(self._session)


def open_socket_connection(address) -> "SocketConnection":
    """Connect to an :class:`~repro.core.aio.AsyncSpaceServer` at
    ``(host, port)``; without a HELLO the connection speaks XML."""
    sock = socket.create_connection(address)
    return SocketConnection(sock)


class SocketConnection:
    """Blocking socket adapter with the client connection interface."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.closed = False

    def send_bytes(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv_bytes(self, max_bytes: int = 65536) -> bytes:
        """Bytes received, or ``b""`` when none arrived within
        :data:`RECV_WAIT` — a bounded wait, so the client's
        ``request_timeout`` fires against a silent peer.  Bytes that do
        arrive end the wait at once.  ``closed`` is set only on EOF."""
        if self.closed:
            return b""
        readable, _, _ = select.select([self._sock], [], [], RECV_WAIT)
        if not readable:
            return b""
        data = self._sock.recv(max_bytes)
        if not data:
            self.closed = True
        return data

    def recv_ready(self) -> bool:
        """Bytes pending?  A zero-timeout select, so event polling
        (``SpaceClient.poll_events``) never parks in a blocking recv."""
        if self.closed:
            return True  # let recv_bytes surface the EOF
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
        except (OSError, ValueError):
            return True
        return bool(readable)

    def close(self) -> None:
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass
