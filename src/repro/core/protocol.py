"""Socket wire protocol between clients and the space server.

Sec. 4.2: the C++ client on the Theseus board cannot run a JVM, so a
"Java/socket wrapper" exposes the space server over a byte stream with
XML-encoded entries.  This module defines that byte stream.

Frame layout (big-endian)::

    magic(2) = 0x54 0x53 ("TS")
    type(1)              -- MessageType
    request_id(4)
    body_length(4)
    body(body_length)    -- XML document (may be empty)

Requests carry scalar parameters (lease duration, timeout, lease ids) as
attributes of a ``<request>`` wrapper element whose first child, if any,
is the XML-encoded entry/tuple/template.

The *frame* layout is codec-independent; only the body encoding varies.
A connection starts out speaking XML bodies.  A client may open with a
``HELLO`` message offering body codecs (``codecs="binary,xml"``); the
server answers ``HELLO_ACK`` naming its pick, still in the old encoding,
and both sides switch for every subsequent frame.  A client that never
sends ``HELLO`` gets the historical XML protocol unchanged (docs/wire.md).
"""

from __future__ import annotations

import enum
import struct
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.core.errors import ProtocolError
from repro.core.xmlcodec import XmlCodec

MAGIC = b"TS"
HEADER = struct.Struct(">2sBII")

#: Upper bound on one message body; protects servers from bad lengths.
MAX_BODY = 1 << 20


class MessageType(enum.IntEnum):
    # client -> server
    WRITE = 0x01
    READ = 0x02
    TAKE = 0x03
    READ_IF_EXISTS = 0x04
    TAKE_IF_EXISTS = 0x05
    NOTIFY_REGISTER = 0x06
    CANCEL_LEASE = 0x07
    RENEW_LEASE = 0x08
    PING = 0x09
    HELLO = 0x0A
    STATS = 0x0B
    # server -> client
    WRITE_ACK = 0x81
    RESULT_ENTRY = 0x82
    RESULT_NULL = 0x83
    NOTIFY_ACK = 0x84
    NOTIFY_EVENT = 0x85
    LEASE_ACK = 0x86
    ERROR = 0x87
    PONG = 0x88
    HELLO_ACK = 0x89
    STATS_ACK = 0x8A


#: Message types a server may send.
RESPONSE_TYPES = {
    MessageType.WRITE_ACK,
    MessageType.RESULT_ENTRY,
    MessageType.RESULT_NULL,
    MessageType.NOTIFY_ACK,
    MessageType.NOTIFY_EVENT,
    MessageType.LEASE_ACK,
    MessageType.ERROR,
    MessageType.PONG,
    MessageType.HELLO_ACK,
    MessageType.STATS_ACK,
}

#: Body codecs this build can negotiate, in server preference order.
SUPPORTED_CODECS = ("binary", "xml")

#: Request ids live in the 32-bit header field; clients wrap modulo this.
REQUEST_ID_MODULUS = 1 << 32


@dataclass
class Message:
    """One decoded protocol message."""

    msg_type: MessageType
    request_id: int
    #: scalar parameters (<request> attributes): lease, timeout, lease_id...
    params: dict = field(default_factory=dict)
    #: the embedded entry/tuple/template, if any (decoded object)
    item: Any = None

    def param_float(self, name: str, default: Optional[float] = None) -> Optional[float]:
        value = self.params.get(name)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ProtocolError(f"parameter {name}={value!r} is not a number")

    def param_int(self, name: str, default: Optional[int] = None) -> Optional[int]:
        value = self.params.get(name)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ProtocolError(f"parameter {name}={value!r} is not an int")


class XmlWireCodec:
    """The historical body encoding: an XML ``<request>`` document.

    A *wire codec* turns a :class:`Message` into body bytes and back;
    the frame header around the body never changes.  This one wraps the
    :class:`XmlCodec` value model and is what every connection speaks
    until (unless) a HELLO exchange negotiates another.
    """

    name = "xml"

    def __init__(self, registry: XmlCodec):
        self.registry = registry

    def encode_body(self, message: Message) -> bytes:
        if not message.params and message.item is None:
            return b""
        root = ET.Element("request")
        for key, value in sorted(message.params.items()):
            root.set(key, str(value))
        if message.item is not None:
            root.append(self.registry.to_element(message.item))
        return ET.tostring(root, encoding="utf-8")

    def decode_body(self, msg_type: MessageType, request_id: int, body: bytes) -> Message:
        return decode_body(msg_type, request_id, body, self.registry)


def as_wire_codec(codec) -> Any:
    """Normalise: a bare :class:`XmlCodec` means the XML wire encoding."""
    if isinstance(codec, XmlCodec):
        return XmlWireCodec(codec)
    return codec


def make_wire_codec(name: str, registry: XmlCodec):
    """Instantiate a negotiated body codec over a value-model registry."""
    if name == "xml":
        return XmlWireCodec(registry)
    if name == "binary":
        # Function-local on purpose: bincodec imports Message from here,
        # and this lazy edge keeps the module graph acyclic.
        from repro.core.bincodec import BinaryWireCodec

        return BinaryWireCodec(registry)
    raise ProtocolError(f"unknown wire codec {name!r}")


def negotiate_codec(offered: str) -> Optional[str]:
    """Server side of HELLO: pick from a comma-separated offer.

    Returns the first name in :data:`SUPPORTED_CODECS` the client also
    offered, or ``None`` when nothing overlaps (the server then answers
    ``HELLO_ACK`` naming ``xml``, which every client speaks already).
    """
    names = {name.strip() for name in offered.split(",") if name.strip()}
    for candidate in SUPPORTED_CODECS:
        if candidate in names:
            return candidate
    return None


def encode_message(message: Message, codec) -> bytes:
    """Serialise a :class:`Message` to wire bytes.

    ``codec`` is an :class:`XmlCodec` (historical call sites — XML
    bodies) or any wire codec exposing ``encode_body``.
    """
    body = as_wire_codec(codec).encode_body(message)
    if len(body) > MAX_BODY:
        raise ProtocolError(f"message body too large: {len(body)} bytes")
    header = HEADER.pack(
        MAGIC, int(message.msg_type), message.request_id, len(body)
    )
    return header + body


def decode_body(msg_type: MessageType, request_id: int, body: bytes, codec: XmlCodec) -> Message:
    """Reconstruct a :class:`Message` from its decoded header and body."""
    if not body:
        return Message(msg_type, request_id)
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise ProtocolError(f"bad message XML: {exc}") from exc
    if root.tag != "request":
        raise ProtocolError(f"expected <request>, got <{root.tag}>")
    params = dict(root.attrib)
    children = list(root)
    if len(children) > 1:
        raise ProtocolError("a message carries at most one item")
    item = codec.from_element(children[0]) if children else None
    return Message(msg_type, request_id, params, item)


class StreamParser:
    """Incremental parser: feed bytes, iterate complete messages.

    Used by every transport — TCP sockets, in-memory pipes and the TpWIRE
    bridges — since all of them deliver arbitrary byte chunks.

    ``codec`` is an :class:`XmlCodec` (XML bodies, the default wire
    encoding) or any wire codec with ``decode_body``; :meth:`set_codec`
    switches mid-stream after a HELLO exchange — framing is shared, so
    the switch is clean at any frame boundary.

    When a frame is malformed the raised :class:`ProtocolError` leaves
    :attr:`error_request_id` holding the frame's request id if the header
    was intact (transports use it to answer ``ERROR`` before closing) and
    ``None`` when the stream itself lost sync (bad magic — nothing about
    the frame can be trusted, not even the id).
    """

    def __init__(self, codec):
        self.codec = as_wire_codec(codec)
        self._buffer = bytearray()
        self.messages_parsed = 0
        #: request id of the frame whose parse last failed, if the
        #: header survived; ``None`` after sync loss.
        self.error_request_id: Optional[int] = None

    def set_codec(self, codec) -> None:
        """Switch body codecs at a frame boundary (HELLO negotiation)."""
        self.codec = as_wire_codec(codec)

    def feed(self, data: bytes) -> list[Message]:
        """Append bytes; return every message completed by them.

        A malformed frame raises :class:`ProtocolError` carrying, in its
        ``messages``, the frames this call completed before it: a reader
        serves those first, so its replies do not depend on where TCP
        split the stream.
        """
        self._buffer.extend(data)
        messages = []
        try:
            while True:
                message = self._try_parse_one()
                if message is None:
                    return messages
                messages.append(message)
        except ProtocolError as exc:
            exc.messages = messages
            raise

    def _try_parse_one(self) -> Optional[Message]:
        if len(self._buffer) < HEADER.size:
            return None
        magic, raw_type, request_id, length = HEADER.unpack_from(self._buffer)
        if magic != MAGIC:
            self.error_request_id = None
            raise ProtocolError(f"bad magic {magic!r}; stream out of sync")
        if length > MAX_BODY:
            self.error_request_id = request_id
            raise ProtocolError(f"declared body too large: {length}")
        total = HEADER.size + length
        if len(self._buffer) < total:
            return None
        body = bytes(self._buffer[HEADER.size : total])
        del self._buffer[:total]
        self.error_request_id = request_id
        try:
            msg_type = MessageType(raw_type)
        except ValueError:
            raise ProtocolError(f"unknown message type {raw_type:#x}")
        message = self.codec.decode_body(msg_type, request_id, body)
        self.messages_parsed += 1
        self.error_request_id = None
        return message

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)
