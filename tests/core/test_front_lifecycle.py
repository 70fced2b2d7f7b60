"""Connection lifecycle of the TCP front end: pruning and shutdown.

Ported from the thread-per-connection server's lifecycle regressions:
its per-connection thread list grew without
bound over the life of the server, and ``stop()`` abandoned its threads
instead of joining them.  The same three behaviours, over real TCP,
against :class:`~repro.core.aio.AsyncSpaceServer`.
"""

import asyncio
import socket
import time

from repro.core import TupleSpace
from tests.core.tcp_front import LOOP_TIMEOUT, serve_tcp


def wait_until(predicate, timeout=5.0, interval=0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def stop(front) -> None:
    asyncio.run_coroutine_threadsafe(front.stop(), front._loop).result(
        LOOP_TIMEOUT
    )


def test_connection_table_is_bounded_by_live_connections():
    with serve_tcp(TupleSpace()) as front:
        # Churn: each connection is accepted, then fully closed (and its
        # handler gone) before the next one arrives.
        for accepted in range(1, 9):
            conn = socket.create_connection(front.address)
            assert wait_until(lambda: front.connections_total == accepted)
            conn.close()
            assert wait_until(lambda: front.connections_open == 0)
        last = socket.create_connection(front.address)
        try:
            assert wait_until(lambda: front.connections_total == 9)
            # Only the live connection is tracked; the eight dead ones
            # were dropped as they closed.
            assert front.connections_open == 1
        finally:
            last.close()
        assert wait_until(lambda: front.connections_open == 0)


def test_stop_closes_idle_connections_promptly():
    with serve_tcp(TupleSpace()) as front:
        conn = socket.create_connection(front.address)
        try:
            assert wait_until(lambda: front.connections_open == 1)

            start = time.monotonic()
            stop(front)
            elapsed = time.monotonic() - start

            # The connection's reader was parked on an idle socket;
            # stop() must have woken it and torn the connection down.
            assert elapsed < 5.0
            assert front.connections_open == 0
            conn.settimeout(2.0)
            assert conn.recv(65536) == b""
        finally:
            conn.close()


def test_stop_is_idempotent():
    with serve_tcp(TupleSpace()) as front:
        stop(front)
        stop(front)  # no listener left to close, nothing to gather: still fine
        assert front.connections_open == 0
