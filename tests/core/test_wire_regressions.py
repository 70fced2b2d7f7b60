"""Regression tests for the wire-path correctness bugs.

Each test failed before its fix:

1. a malformed frame killed the server's connection thread silently
   (``ProtocolError`` is a ``SpaceError``, which the old
   ``except (OSError, ValueError)`` never caught) — no ERROR reply, no
   clean close;
2. the XML codec decoded a nameless ``<field>`` inside ``type="dict"``
   into ``{None: ...}``;
3. a Python ``tuple`` field was encoded as ``type="list"``, silently
   breaking round-trip equality;
4. ``SpaceClient.poll_events`` parked forever in a blocking ``recv``
   on socket connections when no event was pending;
5. ``_next_request_id`` grew unbounded and died in ``struct.pack('>I')``
   at 2**32, and the stale-response check misclassified everything
   straddling the wrap;
6. valid frames that shared one socket read with a malformed frame
   were dropped: ``StreamParser.feed`` raised and lost the frames it
   had completed, so the replies depended on how TCP split the stream.
"""

import socket
import struct
import threading

import pytest

from repro.core import (
    Entry,
    LindaTuple,
    ManualClock,
    SpaceClient,
    SpaceServer,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.errors import ProtocolError
from repro.core.protocol import (
    HEADER,
    MAGIC,
    REQUEST_ID_MODULUS,
    Message,
    MessageType,
    StreamParser,
    encode_message,
)
from repro.core.transports import LocalConnection, open_socket_connection
from tests.core.tcp_front import serve_tcp


class Part(Entry):
    def __init__(self, serial=None, station=None, weight=None):
        self.serial = serial
        self.station = station
        self.weight = weight


def make_codec():
    codec = XmlCodec()
    codec.register(Part)
    return codec


@pytest.fixture
def tcp_server():
    codec = make_codec()
    space = TupleSpace()
    with serve_tcp(space, codec) as server:
        yield server, codec, space


class TestMalformedFrameAnswersError:
    """Satellite 1: ERROR reply + clean close, not a dead thread."""

    def test_garbage_body_gets_error_reply_then_close(self, tcp_server):
        server, codec, _space = tcp_server
        sock = socket.create_connection(server.address)
        try:
            sock.settimeout(2.0)
            body = b"<definitely-not-xml"
            sock.sendall(
                HEADER.pack(MAGIC, int(MessageType.WRITE), 77, len(body)) + body
            )
            parser = StreamParser(codec)
            replies = []
            while not replies:
                data = sock.recv(65536)
                assert data, "server closed without answering ERROR"
                replies.extend(parser.feed(data))
            (reply,) = replies
            assert reply.msg_type is MessageType.ERROR
            assert reply.request_id == 77
            # ... and then the connection closes cleanly (EOF, not RST).
            assert sock.recv(65536) == b""
        finally:
            sock.close()

    def test_bad_magic_closes_without_error_frame(self, tcp_server):
        server, _codec, _space = tcp_server
        sock = socket.create_connection(server.address)
        try:
            sock.settimeout(2.0)
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            # Sync is lost, no request id is trustworthy: just EOF.
            assert sock.recv(65536) == b""
        finally:
            sock.close()

    def test_server_survives_for_other_clients(self, tcp_server):
        server, codec, _space = tcp_server
        bad = socket.create_connection(server.address)
        try:
            bad.sendall(b"\x00" * 32)
        finally:
            bad.close()
        connection = open_socket_connection(server.address)
        try:
            client = SpaceClient(connection, codec, request_timeout=2.0)
            assert client.ping()
        finally:
            connection.close()


class TestFramesAheadOfABadFrame:
    """Bug 6: the replies must not depend on how the stream was split."""

    @staticmethod
    def _ping_then_garbage(codec):
        body = b"<not-xml"
        return encode_message(Message(MessageType.PING, 7), codec) + (
            HEADER.pack(MAGIC, int(MessageType.WRITE), 55, len(body)) + body
        )

    def test_parser_error_carries_the_frames_before_it(self):
        codec = make_codec()
        parser = StreamParser(codec)
        with pytest.raises(ProtocolError) as caught:
            parser.feed(self._ping_then_garbage(codec))
        assert [(m.msg_type, m.request_id) for m in caught.value.messages] == [
            (MessageType.PING, 7)
        ]
        assert parser.error_request_id == 55

    def test_one_read_answers_pong_then_error(self, tcp_server):
        server, codec, _space = tcp_server
        sock = socket.create_connection(server.address)
        try:
            sock.settimeout(2.0)
            sock.sendall(self._ping_then_garbage(codec))
            parser = StreamParser(codec)
            replies = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                replies.extend(parser.feed(data))
        finally:
            sock.close()
        assert [(r.msg_type, r.request_id) for r in replies] == [
            (MessageType.PONG, 7),
            (MessageType.ERROR, 55),
        ]


class TestNamelessDictField:
    """Satellite 2: a dict member without a name is a protocol error."""

    def test_nameless_dict_member_rejected(self):
        codec = make_codec()
        data = codec.encode(LindaTuple("k", {"a": 1}))
        hostile = data.replace(b'<field name="a"', b"<field")
        with pytest.raises(ProtocolError, match="name"):
            codec.decode(hostile)

    def test_named_dict_still_roundtrips(self):
        codec = make_codec()
        item = LindaTuple("k", {"a": 1, "b": "two"})
        assert codec.decode(codec.encode(item)) == item


class TestTupleFieldRoundTrip:
    """Satellite 3: tuple fields survive the wire as tuples."""

    def test_codec_roundtrip_preserves_tuple(self):
        codec = make_codec()
        item = LindaTuple("k", (1, 2))
        back = codec.decode(codec.encode(item))
        assert back == item
        assert isinstance(back.fields[1], tuple)

    def test_list_still_roundtrips_as_list(self):
        codec = make_codec()
        back = codec.decode(codec.encode(LindaTuple("k", [1, 2])))
        assert isinstance(back.fields[1], list)

    def test_tuple_vs_list_matching_over_server(self):
        codec = make_codec()
        space = TupleSpace(clock=ManualClock())
        server = SpaceServer(space, codec)
        client = SpaceClient(LocalConnection(server), codec)
        client.write(LindaTuple("k", (1, 2)))
        # Before the fix the stored field had decayed to [1, 2] and this
        # exact-value template missed.
        got = client.take_if_exists(TupleTemplate("k", (1, 2)))
        assert got == LindaTuple("k", (1, 2))
        assert isinstance(got.fields[1], tuple)


class TestPollEventsNonBlocking:
    """Satellite 4: poll_events must never park in a blocking recv."""

    def test_poll_events_returns_with_no_pending_bytes(self, tcp_server):
        server, codec, _space = tcp_server
        connection = open_socket_connection(server.address)
        try:
            client = SpaceClient(connection, codec, request_timeout=2.0)
            assert client.ping()
            result = []
            poller = threading.Thread(
                target=lambda: result.append(client.poll_events()),
                daemon=True,
            )
            poller.start()
            poller.join(timeout=2.0)
            # Before the fix this thread sat in sock.recv forever.
            assert not poller.is_alive(), "poll_events blocked"
            assert result == [0]
        finally:
            connection.close()

    def test_poll_events_still_drains_real_events(self, tcp_server):
        server, codec, _space = tcp_server
        connection = open_socket_connection(server.address)
        try:
            client = SpaceClient(connection, codec, request_timeout=2.0)
            events = []
            client.notify(Part(station="drill"), events.append)
            client.write(Part("sn-1", "drill", 1.0))
            # The event may ride in with the WRITE_ACK (dispatched during
            # the write) or arrive later (drained by poll_events); either
            # way poll_events must keep returning without blocking.
            import time

            for _ in range(100):
                client.poll_events()
                if events:
                    break
                time.sleep(0.02)
            assert len(events) == 1
            assert client.poll_events() == 0
        finally:
            connection.close()


class _CannedConnection:
    """Connection stub replaying scripted response frames."""

    def __init__(self, codec):
        self.codec = codec
        self.closed = False
        self._rx = bytearray()
        self.sent: list[bytes] = []

    def queue(self, message: Message) -> None:
        self._rx += encode_message(message, self.codec)

    def send_bytes(self, data: bytes) -> None:
        self.sent.append(data)

    def recv_bytes(self, max_bytes: int = 65536) -> bytes:
        data = bytes(self._rx[:max_bytes])
        del self._rx[: len(data)]
        return data

    def recv_ready(self) -> bool:
        return bool(self._rx)

    def close(self) -> None:
        self.closed = True


class TestRequestIdWrap:
    """Satellite 5: ids wrap modulo 2**32; staleness is wrap-safe."""

    def test_id_wraps_instead_of_struct_error(self):
        codec = make_codec()
        connection = _CannedConnection(codec)
        client = SpaceClient(connection, codec)
        client._next_request_id = REQUEST_ID_MODULUS - 2
        for expected in (REQUEST_ID_MODULUS - 1, 1, 2):
            connection.queue(Message(MessageType.PONG, expected))
            # Before the fix the second ping died inside struct.pack('>I').
            assert client.ping()
            header = connection.sent[-1][: HEADER.size]
            _magic, _type, request_id, _length = HEADER.unpack(header)
            assert request_id == expected

    def test_id_zero_is_skipped(self):
        # 0 is reserved for connection-fatal ERROR frames.
        codec = make_codec()
        connection = _CannedConnection(codec)
        client = SpaceClient(connection, codec)
        client._next_request_id = REQUEST_ID_MODULUS - 1
        connection.queue(Message(MessageType.PONG, 1))
        assert client.ping()

    def test_stale_response_across_wrap(self):
        """A late duplicate from just before the wrap is *stale*, not an
        'unknown request' protocol error."""
        codec = make_codec()
        connection = _CannedConnection(codec)
        client = SpaceClient(connection, codec)
        client._next_request_id = REQUEST_ID_MODULUS - 1
        # Current request will be id 1 (post-wrap).  A duplicate response
        # for the *previous* request (id 2**32 - 1) arrives first.
        connection.queue(Message(MessageType.PONG, REQUEST_ID_MODULUS - 1))
        connection.queue(Message(MessageType.PONG, 1))
        assert client.ping()
        assert client.stale_responses == 1

    def test_future_response_still_rejected(self):
        codec = make_codec()
        connection = _CannedConnection(codec)
        client = SpaceClient(connection, codec)
        connection.queue(Message(MessageType.PONG, 1000))
        with pytest.raises(ProtocolError, match="unknown request"):
            client.ping()

    def test_header_field_width_matches_modulus(self):
        assert struct.calcsize(">I") == 4
        assert REQUEST_ID_MODULUS == 1 << 32
