"""Server process of the serving workloads.

Runs ``AsyncSpaceServer`` over ``SpaceServer``/``TupleSpace`` on
127.0.0.1, port 0, after preloading the workload's resident entries.
The load generator drives it over a line protocol on stdin/stdout::

    -> READY <port>        once listening
    <- snap                one JSON line: this process's CPU and wall
                           clocks, the event-loop thread's CPU, peak RSS, the front end's STATS
                           counters, the space's counters, the
                           (wall, CPU, requests) samples taken every
                           0.05 s and, when traced, the per-layer
                           totals, both since the previous snap
    <- quit (or EOF)       graceful stop, exit 0

With ``--trace`` every call of the public entry points of each layer
(``StreamParser.feed``, the wire codecs' ``decode_body``/``encode_body``,
``encode_message``, ``SpaceServer.handle`` and the ``TupleSpace``
operations) records a span on the loop thread's CPU clock; the loop
thread's CPU time not covered by a top-level span is the front end's
(``aio``) own.

Usage: ``python3 perfbench/serve.py --workload serve-xml-resident --seed 1``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from measure import peak_rss_mb  # noqa: E402
from serving import WORKLOADS, make_registry, resident_entries  # noqa: E402
from spans import SpanRecorder, fold  # noqa: E402

from repro.core import TupleSpace  # noqa: E402
from repro.core.aio import AsyncSpaceServer  # noqa: E402
from repro.core.server import SpaceServer  # noqa: E402

#: Interval of the server's own (wall, CPU, requests served) samples, s.
SAMPLE_S = 0.05


class Tracing:
    """Spans and byte counts around the serving layers' public calls."""

    def __init__(self):
        self.recorder = SpanRecorder(clock=time.thread_time)
        self.counts = {"req_bytes": 0, "reply_bytes": 0, "feed_messages": 0}

    def install(self) -> None:
        from repro.core import aio, bincodec, protocol, server, space

        wrap = self.recorder.wrap
        counts = self.counts

        def feed(parser, data):
            messages = original_feed(parser, data)
            counts["feed_messages"] += len(messages)
            return messages

        def sized_decode(fn):
            def decode_body(codec, msg_type, request_id, body):
                counts["req_bytes"] += len(body)
                return fn(codec, msg_type, request_id, body)
            return decode_body

        def sized_encode(fn):
            def encode_body(codec, message):
                body = fn(codec, message)
                counts["reply_bytes"] += len(body)
                return body
            return encode_body

        def request_id_arg(args):
            return args[2]

        def message_arg(index):
            return lambda args: args[index].request_id

        original_feed = protocol.StreamParser.feed
        protocol.StreamParser.feed = wrap("protocol.feed", feed)
        for layer, cls in (("xmlcodec", protocol.XmlWireCodec),
                           ("bincodec", bincodec.BinaryWireCodec)):
            cls.decode_body = wrap(f"{layer}.decode",
                                   sized_decode(cls.decode_body),
                                   request_id_arg)
            cls.encode_body = wrap(f"{layer}.encode",
                                   sized_encode(cls.encode_body),
                                   message_arg(1))
        # The front end calls encode_message through its module global.
        aio.encode_message = wrap("protocol.encode", protocol.encode_message,
                                  message_arg(0))
        server.SpaceServer.handle = wrap("server.handle",
                                         server.SpaceServer.handle,
                                         message_arg(2))
        for op, name in (("write", "write"), ("read", "read_if_exists"),
                         ("take", "take_if_exists")):
            setattr(space.TupleSpace, name,
                    wrap(f"space.{op}", getattr(space.TupleSpace, name)))

    def snapshot(self) -> dict:
        """Per-layer totals since the last snapshot (spans are folded
        and released here, so memory stays bounded by one phase)."""
        folded = fold(self.recorder.drain())
        counts = dict(self.counts)
        for key in self.counts:
            self.counts[key] = 0
        return {
            "self_s": folded.self_s,
            "calls": folded.calls,
            "top_level_s": folded.top_level_s,
            "counts": counts,
        }


def _control(loop, snapshot, stop) -> None:
    """stdin command reader; replies on stdout."""
    for line in sys.stdin:
        command = line.strip()
        if command == "snap":
            reply = asyncio.run_coroutine_threadsafe(snapshot(), loop).result()
            print(json.dumps(reply), flush=True)
        elif command == "quit":
            break
    loop.call_soon_threadsafe(stop.set)


async def _serve(args, tracing) -> None:
    workload = WORKLOADS[args.workload]
    space = TupleSpace()
    for entry in resident_entries(workload, args.seed):
        space.write(entry)
    if tracing is not None:
        tracing.install()
    front = AsyncSpaceServer(SpaceServer(space, make_registry()), port=0)
    await front.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    samples = []
    timer = None

    def sample() -> None:
        nonlocal timer
        samples.append((time.perf_counter(), time.process_time(), front.requests))
        timer = loop.call_later(SAMPLE_S, sample)

    sample()

    async def snapshot() -> dict:
        reply = {
            "cpu_s": time.process_time(),
            # this coroutine runs on the loop thread
            "loop_cpu_s": time.thread_time(),
            "wall_s": time.perf_counter(),
            "rss_mb": peak_rss_mb(),
            "stats": front.stats(),
            "space": space.stats.as_dict(),
            "samples": list(samples),
        }
        samples.clear()
        if tracing is not None:
            reply["trace"] = tracing.snapshot()
        return reply

    control = threading.Thread(
        target=_control, args=(loop, snapshot, stop), daemon=True,
    )
    control.start()
    print(f"READY {front.address[1]}", flush=True)
    try:
        await stop.wait()
    finally:
        timer.cancel()
        await front.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    asyncio.run(_serve(args, Tracing() if args.trace else None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
