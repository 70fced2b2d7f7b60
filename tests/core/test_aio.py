"""The asyncio front end: negotiation, pipelining, backpressure, shutdown."""

import asyncio

import pytest

from repro.core import (
    Entry,
    LindaTuple,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core import aio
from repro.core.aio import AsyncSpaceClient, AsyncSpaceServer
from repro.core.errors import (
    ConnectionClosedError,
    RequestTimeoutError,
    SpaceError,
)
from repro.core.protocol import (
    HEADER,
    MAGIC,
    Message,
    MessageType,
    StreamParser,
    encode_message,
)
from repro.core.server import SpaceServer


class Part(Entry):
    def __init__(self, serial=None, station=None, weight=None):
        self.serial = serial
        self.station = station
        self.weight = weight


def make_codec():
    codec = XmlCodec()
    codec.register(Part)
    return codec


def run(coro):
    return asyncio.run(coro)


async def make_front(**kwargs):
    codec = make_codec()
    space = TupleSpace()
    server = SpaceServer(space, codec)
    front = AsyncSpaceServer(server, port=0, **kwargs)
    await front.start()
    return front, codec, space


class TestBasicOperations:
    def test_negotiated_write_take_roundtrip(self):
        async def scenario():
            front, codec, space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                assert client.wire_codec == "binary"
                ack = await client.write(Part("sn-1", "drill", 2.5), lease=60)
                assert ack["lease_id"] > 0
                got = await client.take(Part(serial="sn-1"))
                assert got == Part("sn-1", "drill", 2.5)
                assert len(space) == 0
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_legacy_client_stays_on_xml(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, codecs=None, request_timeout=2.0
                )
                assert client.wire_codec == "xml"
                assert await client.ping()
                await client.write(LindaTuple("k", (1, 2)))
                got = await client.take_if_exists(TupleTemplate("k", (1, 2)))
                assert got is not None and isinstance(got.fields[1], tuple)
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_read_if_exists_and_nulls(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                assert await client.read_if_exists(Part(serial="nope")) is None
                assert await client.take(Part(serial="nope"), timeout=0.05) is None
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_server_error_raises_space_error(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                with pytest.raises(SpaceError):
                    await client.cancel_lease(999999)
                await client.close()
            finally:
                await front.stop()

        run(scenario())


class TestPipelining:
    def test_blocking_take_resolved_by_pipelined_write(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=5.0
                )
                take = asyncio.ensure_future(
                    client.take(Part(serial="sn-2"), timeout=5)
                )
                await asyncio.sleep(0.02)  # take parks server-side
                await client.write(Part("sn-2", "mill", 1.0))
                got = await take
                assert got.serial == "sn-2"
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_many_requests_in_flight(self):
        async def scenario():
            front, codec, space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=5.0
                )
                writes = [
                    client.write(Part(f"sn-{n}", "drill", float(n)))
                    for n in range(50)
                ]
                await asyncio.gather(*writes)
                assert len(space) == 50
                takes = [
                    client.take_if_exists(Part(serial=f"sn-{n}"))
                    for n in range(50)
                ]
                results = await asyncio.gather(*takes)
                assert all(r is not None for r in results)
                assert len(space) == 0
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_notify_events_between_connections(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                listener = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                writer = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                events = []
                await listener.notify(Part(station="drill"), events.append)
                await writer.write(Part("sn-1", "drill", 1.0))
                for _ in range(100):
                    if events:
                        break
                    await asyncio.sleep(0.01)
                assert len(events) == 1
                await listener.close()
                await writer.close()
            finally:
                await front.stop()

        run(scenario())

    def test_request_timeout_raises(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=0.1
                )
                # server-side timeout (5s) far exceeds the client's 0.1s
                with pytest.raises(RequestTimeoutError):
                    await client.take(Part(serial="never"), timeout=5)
                await client.close()
            finally:
                await front.stop()

        run(scenario())


class TestLocalPairs:
    def test_loopback_client_negotiates_binary(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, codecs=None, request_timeout=2.0
                )
                assert await client.negotiate() == "binary"
                await client.write(LindaTuple("x", 1))
                assert await client.take_if_exists(TupleTemplate("x", 1))
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_many_local_clients(self):
        async def scenario():
            front, codec, space = await make_front()
            try:
                async def one(n):
                    client = await AsyncSpaceClient.connect(
                        front.address, codec, request_timeout=5.0
                    )
                    await client.write(LindaTuple("n", n))
                    got = await client.take(TupleTemplate("n", n), timeout=5)
                    await client.close()
                    return got is not None

                results = await asyncio.gather(*(one(n) for n in range(200)))
                assert all(results)
                assert len(space) == 0
                assert front.negotiated["binary"] == 200
            finally:
                await front.stop()

        run(scenario())


class TestMalformedFrames:
    def test_error_reply_then_close(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                reader, writer = await asyncio.open_connection(*front.address)
                body = b"<not-xml"
                writer.write(
                    HEADER.pack(MAGIC, int(MessageType.WRITE), 55, len(body))
                    + body
                )
                await writer.drain()
                parser = StreamParser(codec)
                replies = []
                while not replies:
                    data = await asyncio.wait_for(reader.read(65536), 2.0)
                    assert data, "closed without ERROR reply"
                    replies.extend(parser.feed(data))
                assert replies[0].msg_type is MessageType.ERROR
                assert replies[0].request_id == 55
                assert await asyncio.wait_for(reader.read(65536), 2.0) == b""
                writer.close()
                assert front.protocol_errors == 1
            finally:
                await front.stop()

        run(scenario())

    def test_bad_magic_closes_silently(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                reader, writer = await asyncio.open_connection(*front.address)
                writer.write(b"GET / HTTP/1.1\r\n\r\n")
                await writer.drain()
                assert await asyncio.wait_for(reader.read(65536), 2.0) == b""
                writer.close()
            finally:
                await front.stop()

        run(scenario())


async def read_replies(reader, codec, count):
    """Read and parse frames from a raw stream until ``count`` arrived."""
    parser = StreamParser(codec)
    replies = []
    while len(replies) < count:
        data = await asyncio.wait_for(reader.read(1 << 20), 5.0)
        assert data, f"closed after {len(replies)} of {count} replies"
        replies.extend(parser.feed(data))
    return replies


async def wait_until(predicate, seconds=5.0):
    for _ in range(int(seconds / 0.01)):
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return predicate()


class TestBackpressure:
    def test_reader_pauses_until_writer_drains(self):
        async def scenario():
            # 40 replies of 512 KiB each stay under the slow-consumer cap.
            front, codec, _space = await make_front(limit_bytes=64 << 20)
            try:
                reader, writer = await asyncio.open_connection(*front.address)
                big = Part("big", "x" * (512 * 1024))
                frames = [encode_message(
                    Message(MessageType.WRITE, 1, {}, big), codec
                )]
                frames += [
                    encode_message(Message(
                        MessageType.READ_IF_EXISTS, n, {}, Part(serial="big")
                    ), codec)
                    for n in range(2, 42)
                ]
                writer.write(b"".join(frames))
                await writer.drain()
                # The client reads nothing: about 20 MiB of replies pile
                # up past high_water and the server stops reading it.
                assert await wait_until(lambda: front.requests == 41)
                assert await wait_until(lambda: front.backpressure_pauses >= 1)
                writer.write(encode_message(Message(MessageType.PING, 42), codec))
                await writer.drain()
                await asyncio.sleep(0.05)
                assert front.requests == 41  # the PING sits unread
                # The client reads: the server drains, resumes reading,
                # and every reply arrives in request order.
                replies = await read_replies(reader, codec, 42)
                assert [r.request_id for r in replies] == list(range(1, 43))
                assert replies[0].msg_type is MessageType.WRITE_ACK
                assert all(
                    r.msg_type is MessageType.RESULT_ENTRY and r.item == big
                    for r in replies[1:41]
                )
                assert replies[41].msg_type is MessageType.PONG
                assert front.requests == 42
                assert front.slow_consumer_closes == 0
                writer.close()
            finally:
                await front.stop()

        run(scenario())

    def test_slow_consumer_is_closed(self):
        async def scenario():
            front, codec, _space = await make_front(limit_bytes=256 * 1024)
            try:
                slow = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                fast = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                await slow.notify(Part(station="drill"), lambda event: None)
                slow.writer.transport.pause_reading()  # never reads again
                # Each matching write sends the slow client a 64 KiB
                # event; once the kernel's socket buffers are full they
                # pile up in the server until the hard cap closes it.
                payload = "x" * (64 * 1024)
                for n in range(500):
                    await fast.write(Part(f"sn-{n}", "drill", payload))
                    await fast.take_if_exists(Part(serial=f"sn-{n}"))
                    if front.slow_consumer_closes:
                        break
                assert front.slow_consumer_closes >= 1
                await fast.close()
                assert await wait_until(lambda: front.connections_open == 0)
                await slow.close()
            finally:
                await front.stop()

        run(scenario())


class TestTracePoints:
    """The serving benchmark's per-layer trace wraps the module-global
    ``encode_message`` and ``StreamParser.feed``: every reply must be
    encoded through the one, and every read must cost exactly one call
    of the other, or the ``protocol`` layer silently reads empty."""

    def test_one_encode_per_reply_and_one_feed_per_read(self, monkeypatch):
        encodes = []
        feeds = []
        writes = []
        per_read = []  # (feed calls, transport writes) of each read

        original_encode = aio.encode_message
        original_feed = StreamParser.feed
        original_read = aio._AsyncConnection.buffer_updated
        original_write = aio._AsyncConnection._write

        def counted_encode(message, wire):
            encodes.append(message.request_id)
            return original_encode(message, wire)

        def counted_feed(parser, data):
            feeds.append(parser)
            return original_feed(parser, data)

        def counted_write(conn, data):
            writes.append(conn)
            return original_write(conn, data)

        def counted_read(conn, nbytes):
            feeds_before, writes_before = len(feeds), len(writes)
            original_read(conn, nbytes)
            per_read.append(
                (len(feeds) - feeds_before, len(writes) - writes_before)
            )

        monkeypatch.setattr(aio, "encode_message", counted_encode)
        monkeypatch.setattr(StreamParser, "feed", counted_feed)
        monkeypatch.setattr(aio._AsyncConnection, "buffer_updated", counted_read)
        monkeypatch.setattr(aio._AsyncConnection, "_write", counted_write)

        async def scenario():
            front, codec, _space = await make_front()
            try:
                reader, writer = await asyncio.open_connection(*front.address)
                requests = []
                for n in range(1, 31, 3):
                    requests += [
                        Message(MessageType.WRITE, n, {}, Part(f"sn-{n}")),
                        Message(MessageType.READ_IF_EXISTS, n + 1, {},
                                Part(serial=f"sn-{n}")),
                        Message(MessageType.PING, n + 2),
                    ]
                # ``encode_message`` here is the protocol module's own,
                # so the client's encodes are not counted.
                writer.write(b"".join(
                    encode_message(request, codec) for request in requests
                ))
                await writer.drain()
                replies = await read_replies(reader, codec, len(requests))
                assert [r.request_id for r in replies] == list(range(1, 31))
                writer.close()
            finally:
                await front.stop()
            return replies

        replies = run(scenario())
        assert sorted(encodes) == [r.request_id for r in replies]
        assert per_read and all(
            feed_calls == 1 and write_calls <= 1
            for feed_calls, write_calls in per_read
        )


class TestShutdownAndStats:
    def test_graceful_stop_fails_pending_and_reaps_waiters(self):
        async def scenario():
            front, codec, _space = await make_front()
            client = await AsyncSpaceClient.connect(
                front.address, codec, request_timeout=10.0
            )
            take = asyncio.ensure_future(
                client.take(Part(serial="never"), timeout=30)
            )
            await asyncio.sleep(0.05)
            await front.stop()
            with pytest.raises(ConnectionClosedError):
                await take
            assert front.server.waiters_reaped == 1
            assert front.connections_open == 0
            await client.close()

        run(scenario())

    def test_stop_aborts_a_peer_that_never_drains(self):
        async def scenario():
            front, codec, _space = await make_front(
                limit_bytes=64 << 20, drain_grace=0.1
            )
            reader, writer = await asyncio.open_connection(*front.address)
            big = Part("big", "x" * (512 * 1024))
            writer.write(b"".join(
                [encode_message(Message(MessageType.WRITE, 1, {}, big), codec)]
                + [
                    encode_message(Message(
                        MessageType.READ_IF_EXISTS, n, {}, Part(serial="big")
                    ), codec)
                    for n in range(2, 42)
                ]
            ))
            await writer.drain()
            assert await wait_until(lambda: front.backpressure_pauses >= 1)
            # The peer never reads: about 20 MiB of replies are more than
            # the socket buffers hold, the flush cannot finish, so stop()
            # aborts the connection once drain_grace has passed.
            await asyncio.wait_for(front.stop(), 5.0)
            assert front.connections_open == 0
            writer.close()

        run(scenario())

    def test_stats_message(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                await client.write(Part("sn-1"))
                stats = await client.stats()
                assert int(stats["connections_open"]) == 1
                assert int(stats["negotiated_binary"]) == 1
                assert int(stats["requests"]) >= 2
                assert int(stats["requests_handled"]) >= 1
                await client.close()
            finally:
                await front.stop()

        run(scenario())
