"""Test helper: the asyncio TCP front end on a background event loop.

Lets synchronous tests (``SpaceClient`` over ``open_socket_connection``,
raw sockets, client threads) talk to :class:`AsyncSpaceServer`::

    with serve_tcp(space, codec) as front:
        connection = open_socket_connection(front.address)

A test that drives the front itself schedules onto its loop:
``asyncio.run_coroutine_threadsafe(front.stop(), front._loop)``.
"""

import asyncio
import contextlib
import threading

from repro.core import SpaceServer, XmlCodec
from repro.core.aio import AsyncSpaceServer

#: Generous bound on start/stop so a wedged loop fails the test, never hangs it.
LOOP_TIMEOUT = 10.0


@contextlib.contextmanager
def serve_tcp(space, codec=None):
    """Run ``AsyncSpaceServer(SpaceServer(space, codec), port=0)`` on its
    own loop thread; yield the started front, stop it on exit."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="space-front")
    thread.start()
    front = AsyncSpaceServer(
        SpaceServer(space, codec if codec is not None else XmlCodec()), port=0
    )
    try:
        asyncio.run_coroutine_threadsafe(front.start(), loop).result(LOOP_TIMEOUT)
        yield front
    finally:
        try:
            asyncio.run_coroutine_threadsafe(front.stop(), loop).result(
                LOOP_TIMEOUT
            )
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(LOOP_TIMEOUT)
            loop.close()
