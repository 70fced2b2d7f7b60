"""Inputs of the serving workloads, generated from the seed.

Everything the load generator sends and everything it expects back is
made here, from ``(workload, seed)`` alone, so one seed always gives the
same preload, the same per-connection request scripts and the same
open-loop schedule.  The server process imports this module too, for
the entry class and the resident preload.

A connection's script is *cyclic*: after its last request it starts
again at the first.  Each cycle leaves the space as it found it (every
entry a cycle writes for itself it also takes, and short-lease writes
are never read), and a connection's requests are served in order, so
the expected reply of request ``k`` is ``expects[k % len(expects)]``
however long the run.  Keys are split by connection, so the outcome of
every request is known in advance whatever the interleaving.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.core import Entry, LindaTuple, TupleTemplate, XmlCodec
from repro.core.errors import ProtocolError
from repro.core.protocol import (
    Message,
    MessageType,
    StreamParser,
    encode_message,
    make_wire_codec,
)


class BenchPart(Entry):
    """The workload entry: a part travelling between stations."""

    def __init__(self, serial=None, station=None, weight=None):
        self.serial = serial
        self.station = station
        self.weight = weight


def make_registry() -> XmlCodec:
    codec = XmlCodec()
    codec.register(BenchPart)
    return codec


STATIONS = ("drill", "mill", "lathe", "press", "paint", "inspect")


@dataclass(frozen=True)
class ServeWorkload:
    """One serving workload: codec, resident population and load shape."""

    name: str
    #: body codec: "binary" (negotiated by HELLO) or "xml" (no HELLO)
    codec: str
    #: entries preloaded with FOREVER leases before the timed window
    resident: int
    #: pinned open-loop offered rate, requests/s over all connections:
    #: about half the closed-loop rate of one request in flight per
    #: connection on a 2-core x86 host
    open_rate: float


WORKLOADS = {
    "serve-binary-churn": ServeWorkload(
        "serve-binary-churn", codec="binary", resident=0, open_rate=3000.0,
    ),
    "serve-xml-resident": ServeWorkload(
        "serve-xml-resident", codec="xml", resident=20_000, open_rate=2000.0,
    ),
}

#: Client connections (at most ``nproc`` of a 2-core host).
CONNECTIONS = 2
#: Closed-loop requests kept in flight per connection.
DEPTH = 8
#: Rounds in one cycle of a connection's script.
ROUNDS = 512
#: Lease of the never-read writes of the resident mix, seconds.
SHORT_LEASE_S = 0.25


@dataclass(frozen=True)
class Expect:
    """The reply one request must get."""

    reply: MessageType
    item: Any = None
    #: lease a WRITE_ACK must grant
    granted: Optional[float] = None


@dataclass
class Script:
    """A connection's cyclic request script and the replies it expects."""

    messages: list
    expects: list

    def __len__(self) -> int:
        return len(self.messages)


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(map(str, salt)))


def _token(seed: int) -> str:
    return f"{_rng(seed, 'token').getrandbits(32):08x}"


def resident_key(seed: int, index: int) -> str:
    return f"r{index}-{_token(seed)}"


def resident_entries(workload: ServeWorkload, seed: int) -> list:
    """The preloaded population: ``resident`` entries, FOREVER leases."""
    rng = _rng(seed, workload.name, "resident")
    return [
        BenchPart(
            resident_key(seed, i),
            rng.choice(STATIONS),
            round(rng.uniform(0.5, 50.0), 3),
        )
        for i in range(workload.resident)
    ]


def build_script(workload: ServeWorkload, seed: int, conn: int) -> Script:
    """Requests and expected replies of connection ``conn``, one cycle."""
    if workload.resident:
        return _resident_script(workload, seed, conn)
    return _churn_script(workload, seed, conn)


def _churn_script(workload: ServeWorkload, seed: int, conn: int) -> Script:
    """Transient mix: write, read it, take it; nested tuples every 4th round."""
    rng = _rng(seed, workload.name, "conn", conn)
    token = _token(seed)
    script = Script([], [])
    for r in range(ROUNDS):
        serial = f"c{conn}-{r}-{token}"
        part = BenchPart(serial, rng.choice(STATIONS), round(rng.uniform(0.5, 50.0), 3))
        probe = BenchPart(serial=serial)
        _add(script, MessageType.WRITE, {}, part,
             Expect(MessageType.WRITE_ACK, granted=float("inf")))
        _add(script, MessageType.READ_IF_EXISTS, {}, probe,
             Expect(MessageType.RESULT_ENTRY, part))
        _add(script, MessageType.TAKE_IF_EXISTS, {}, probe,
             Expect(MessageType.RESULT_ENTRY, part))
        if r % 4 == 0:
            fields = (serial, (1, rng.randrange(1000)),
                      [part.weight, part.station], {"k": None})
            row = LindaTuple(*fields)
            _add(script, MessageType.WRITE, {}, row,
                 Expect(MessageType.WRITE_ACK, granted=float("inf")))
            _add(script, MessageType.TAKE_IF_EXISTS, {}, TupleTemplate(*fields),
                 Expect(MessageType.RESULT_ENTRY, row))
    return script


def _resident_script(workload: ServeWorkload, seed: int, conn: int) -> Script:
    """Read-mostly mix over the resident population.

    Per round: five ``read_if_exists`` of resident keys (about one in
    five names a key past the population, a miss), one short-lease
    write never read back, and one write the round later takes back.
    """
    rng = _rng(seed, workload.name, "conn", conn)
    token = _token(seed)
    residents = resident_entries(workload, seed)
    span = workload.resident + workload.resident // 4
    script = Script([], [])

    def read():
        index = rng.randrange(span)
        probe = BenchPart(serial=resident_key(seed, index))
        if index < workload.resident:
            expect = Expect(MessageType.RESULT_ENTRY, residents[index])
        else:
            expect = Expect(MessageType.RESULT_NULL)
        _add(script, MessageType.READ_IF_EXISTS, {}, probe, expect)

    for r in range(ROUNDS):
        own = BenchPart(f"o{conn}-{r}-{token}", rng.choice(STATIONS),
                        round(rng.uniform(0.5, 50.0), 3))
        brief = BenchPart(f"s{conn}-{r}-{token}", rng.choice(STATIONS),
                          round(rng.uniform(0.5, 50.0), 3))
        read()
        read()
        _add(script, MessageType.WRITE, {}, own,
             Expect(MessageType.WRITE_ACK, granted=float("inf")))
        read()
        _add(script, MessageType.WRITE, {"lease": SHORT_LEASE_S}, brief,
             Expect(MessageType.WRITE_ACK, granted=SHORT_LEASE_S))
        read()
        _add(script, MessageType.TAKE_IF_EXISTS, {}, BenchPart(serial=own.serial),
             Expect(MessageType.RESULT_ENTRY, own))
        read()
    return script


def _add(script: Script, msg_type, params, item, expect: Expect) -> None:
    # Request ids run 1..len within a cycle; replies are matched by order.
    request_id = len(script.messages) + 1
    script.messages.append(Message(msg_type, request_id, params, item))
    script.expects.append(expect)


def encode_script(script: Script, codec: str, registry: XmlCodec) -> list:
    """Wire frames of a script, encoded by the program's own encoder."""
    wire = make_wire_codec(codec, registry)
    return [encode_message(message, wire) for message in script.messages]


def open_schedule(rate: float, seconds: float, seed: int, name: str) -> list:
    """Intended send offsets (s) of the open-loop phase: Poisson arrivals."""
    rng = _rng(seed, name, "schedule")
    offsets = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def check_replies(data: bytes, script: Script, count: int, codec: str,
                  registry: XmlCodec, examples: list) -> int:
    """Decode ``count`` replies and count those that differ from the script.

    ``data`` holds a connection's reply bytes from the script's start.
    Missing replies count as wrong; so does any extra byte or frame
    after the last expected one.  Up to five mismatches are described
    in ``examples``.
    """
    parser = StreamParser(registry)
    parser.set_codec(make_wire_codec(codec, registry))
    try:
        replies = parser.feed(data)
    except ProtocolError as exc:  # an undecodable stream fails every reply
        examples.append(f"undecodable reply stream: {exc}")
        return count
    wrong = max(0, count - len(replies))
    if len(replies) > count or parser.buffered_bytes:
        wrong += 1
    for k, reply in enumerate(replies[:count]):
        position = k % len(script)
        request = script.messages[position]
        expect = script.expects[position]
        if not _matches(reply, request.request_id, expect):
            wrong += 1
            if len(examples) < 5:
                examples.append(
                    f"reply {k} to {request.msg_type.name} {request.params} "
                    f"{request.item!r}: got {reply.msg_type.name} "
                    f"{reply.params} {reply.item!r}, expected {expect}"
                )
    return wrong


def _matches(reply: Message, request_id: int, expect: Expect) -> bool:
    if reply.request_id != request_id or reply.msg_type is not expect.reply:
        return False
    if expect.reply is MessageType.RESULT_ENTRY:
        return reply.item == expect.item
    if expect.reply is MessageType.WRITE_ACK:
        lease_id = reply.param_int("lease_id")
        granted = reply.param_float("granted")
        return (
            lease_id is not None and lease_id > 0 and granted is not None
            and _same_lease(granted, expect.granted)
        )
    return True


#: The server reports a lease as ``expires_at - granted_at`` on its
#: clock, which is off by one unit in the last place of the clock reading
#: whenever ``now + lease`` crosses a power of two.
LEASE_TOLERANCE_S = 1e-6


def _same_lease(granted: float, expected: float) -> bool:
    if math.isinf(expected):
        return granted == expected
    return abs(granted - expected) <= LEASE_TOLERANCE_S
