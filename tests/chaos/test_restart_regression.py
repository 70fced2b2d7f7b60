"""Failing-before regressions: in-flight ``take`` across a server restart.

Before the fix, a blocking TAKE parked by a connection that later died
stayed registered in the space: the next matching write was consumed by
the dead session's waiter and the response sent into the void — a
surviving client observed a lost acknowledged write, and a retried take
could silently double-consume.  The server now reaps parked waiters when
the transport reports the session closed (``SpaceServer.session_closed``,
wired into both the local transport and the asyncio TCP front end).

The contract under test: an in-flight ``take`` across a restart of the
TCP front end (:class:`~repro.core.aio.AsyncSpaceServer`) either
completes exactly once or raises :class:`ConnectionClosedError` — never
neither, never twice.
"""

import threading
import time

from repro.core import SpaceServer, TupleSpace, XmlCodec
from repro.core.client import SpaceClient
from repro.core.errors import ConnectionClosedError
from repro.core.protocol import Message, MessageType, encode_message
from repro.core.server import NullTimers
from repro.core.transports import LocalConnection, open_socket_connection
from repro.core.tuples import LindaTuple, TupleTemplate
from tests.core.tcp_front import serve_tcp

TEMPLATE = TupleTemplate("job", int)


def wait_until(predicate, timeout=5.0, interval=0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TakerThread(threading.Thread):
    """Runs one blocking take, capturing its outcome."""

    def __init__(self, address):
        super().__init__(daemon=True)
        self.address = address
        self.result = None
        self.error = None

    def run(self):
        connection = open_socket_connection(self.address)
        client = SpaceClient(connection, XmlCodec())
        try:
            self.result = client.take(TEMPLATE, timeout=30.0)
        except ConnectionClosedError as exc:
            self.error = exc
        finally:
            connection.close()


def test_take_across_restart_completes_once_or_raises():
    space = TupleSpace()
    with serve_tcp(space) as first:
        taker = TakerThread(first.address)
        taker.start()
        # The TAKE is in flight: parked in the space with a timeout timer.
        assert wait_until(lambda: len(first.server._parked) == 1)
        assert space.stats.writes == 0

    # The crash killed the connection; the client must learn it.
    taker.join(timeout=5.0)
    assert not taker.is_alive()
    assert taker.result is None
    assert isinstance(taker.error, ConnectionClosedError)
    # The dead session's waiter was reaped, not left armed.
    assert first.server.waiters_reaped == 1

    # Restart: a fresh front end over the same space.
    with serve_tcp(space) as second:
        connection = open_socket_connection(second.address)
        client = SpaceClient(connection, XmlCodec())
        client.write(LindaTuple("job", 7))
        # The write survives the dead waiter: the new client consumes it
        # exactly once, and there is nothing left afterwards.
        got = client.take_if_exists(TEMPLATE)
        assert got == LindaTuple("job", 7)
        assert client.take_if_exists(TEMPLATE) is None
        connection.close()


def test_take_completed_before_restart_is_delivered_once():
    space = TupleSpace()
    with serve_tcp(space) as first:
        taker = TakerThread(first.address)
        taker.start()
        assert wait_until(lambda: len(first.server._parked) == 1)

        writer_conn = open_socket_connection(first.address)
        writer = SpaceClient(writer_conn, XmlCodec())
        writer.write(LindaTuple("job", 1))
        taker.join(timeout=5.0)
        assert taker.error is None
        assert taker.result == LindaTuple("job", 1)
        writer_conn.close()

    # Delivered takes are done: nothing was reaped, nothing double-served.
    assert first.server.waiters_reaped == 0
    assert space.take_if_exists(TEMPLATE) is None


def test_dead_local_session_never_consumes_a_later_write():
    # Hermetic version of the regression, no threads: a LocalConnection
    # parks a blocking TAKE, closes, and the next write must stay put.
    space = TupleSpace()
    codec = XmlCodec()
    server = SpaceServer(space, codec, timers=NullTimers())
    connection = LocalConnection(server)
    take = Message(MessageType.TAKE, 1, {"timeout": 60.0}, TEMPLATE)
    connection.send_bytes(encode_message(take, codec))
    assert len(server._parked) == 1

    connection.close()
    assert server.waiters_reaped == 1

    space.write(LindaTuple("job", 3))
    # The write is still there — the dead waiter did not consume it.
    assert len(space) == 1
    assert space.take_if_exists(TEMPLATE) == LindaTuple("job", 3)


def test_local_close_is_idempotent_and_reaps_once():
    space = TupleSpace()
    codec = XmlCodec()
    server = SpaceServer(space, codec, timers=NullTimers())
    connection = LocalConnection(server)
    take = Message(MessageType.TAKE, 1, {"timeout": 60.0}, TEMPLATE)
    connection.send_bytes(encode_message(take, codec))
    connection.close()
    connection.close()
    assert server.waiters_reaped == 1
    # A session with nothing parked is a no-op, not an error.
    server.session_closed(object())
    assert server.waiters_reaped == 1
