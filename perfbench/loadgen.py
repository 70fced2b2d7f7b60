"""Out-of-process loopback harness and lean load generator.

The server runs as a child process (``serve.py``) on 127.0.0.1; this
process is the load generator.  It holds one socket per connection and
drives all of them from one thread through a ``select`` loop, sending
frames encoded before the timed window and reading only the 11-byte
frame header of each reply while the clock runs.  Reply bytes are kept
and decoded with the program's ``StreamParser`` after the window, to be
compared with the replies the generated script expects.

Two phases follow set-up:

* closed loop: ``depth`` requests in flight per connection; every reply
  releases the connection's next request.  Gives the capacity.
* open loop: requests leave on a seeded Poisson schedule at the
  workload's pinned rate, whatever the replies do; each is timed from
  its *intended* send time, and how late the sends ran is recorded.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from pathlib import Path

from measure import percentile
from serving import (
    CONNECTIONS,
    DEPTH,
    ServeWorkload,
    build_script,
    check_replies,
    encode_script,
    make_registry,
    open_schedule,
)

from repro.core.protocol import (
    HEADER,
    Message,
    MessageType,
    StreamParser,
    encode_message,
)

HERE = Path(__file__).resolve().parent

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Closed-loop warm-up requests per connection before the open loop; a
#: fixed count, so the server's memory after the open loop is a
#: function of the seed alone.
WARMUP_REQUESTS = 2000
#: Share of the run's seconds given to the closed-loop phase.
CLOSED_SHARE = 0.4
#: Windows of the server's CPU samples in the closed and the open loop.
CLOSED_WINDOW_S = 0.25
OPEN_WINDOW_S = 0.5
#: Longest wait for outstanding replies after a phase, seconds.
DRAIN_S = 10.0
#: The open loop fell behind its schedule (an invalid run) when its
#: median send left later than this, or its last send later than
#: ``MAX_FINAL_LAG_S``: a brief host stall delays a few sends, a
#: generator that cannot keep the rate delays most of them.
MAX_LAG_P50_S = 0.001
MAX_FINAL_LAG_S = 0.1
#: Longest wait for one line from the server process, seconds.
CONTROL_TIMEOUT_S = 60.0


class ServerProcess:
    """The server child and its stdin/stdout control channel."""

    def __init__(self, workload: ServeWorkload, seed: int, traced: bool):
        command = [
            sys.executable, str(HERE / "serve.py"),
            "--workload", workload.name, "--seed", str(seed),
        ]
        if traced:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            ready = self._readline().split()
            if len(ready) != 2 or ready[0] != "READY":
                raise RuntimeError(f"server did not start: {ready!r}")
        except BaseException:
            self.stop()
            raise
        self.port = int(ready[1])

    def _readline(self) -> str:
        if not self._selector.select(CONTROL_TIMEOUT_S):
            raise RuntimeError("server process did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited ({self.proc.poll()})")
        return line

    def snap(self) -> dict:
        self.proc.stdin.write("snap\n")
        self.proc.stdin.flush()
        return json.loads(self._readline())

    def stop(self) -> None:
        """Ask for a graceful stop; kill if it does not come; always reap."""
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._selector.close()
        self.proc.stdout.close()


class Connection:
    """One client socket: queued pre-encoded frames, reply frames counted
    from their headers only."""

    def __init__(self, sock: socket.socket, frames: list):
        self.sock = sock
        self.frames = frames
        self.sent = 0
        self.received = 0
        self.chunks: list = []
        self.reply_times: list = []
        self.intended: list = []
        self._out = bytearray()
        self._header = b""
        self._body_left = 0

    def queue(self, count: int) -> None:
        frames = self.frames
        n = len(frames)
        start = self.sent
        self._out += b"".join(frames[(start + i) % n] for i in range(count))
        self.sent += count

    def flush(self) -> None:
        """Write what the socket takes now; keep the rest queued."""
        if self._out:
            try:
                written = self.sock.send(self._out)
            except BlockingIOError:
                return
            del self._out[:written]

    def receive(self, record_times: bool) -> int:
        """Read once; return how many reply frames completed."""
        try:
            data = self.sock.recv(1 << 18)
        except BlockingIOError:
            return 0
        if not data:
            raise ConnectionError("server closed the connection")
        now = time.perf_counter()
        self.chunks.append(data)
        done = self._count_frames(data)
        self.received += done
        if record_times and done:
            self.reply_times.extend([now] * done)
        return done

    def _count_frames(self, data: bytes) -> int:
        done = 0
        pos = 0
        size = len(data)
        header_size = HEADER.size
        while pos < size:
            if self._body_left:
                step = min(self._body_left, size - pos)
                pos += step
                self._body_left -= step
                if not self._body_left:
                    done += 1
                continue
            need = header_size - len(self._header)
            if size - pos < need:
                self._header += data[pos:]
                break
            header = self._header + data[pos:pos + need]
            self._header = b""
            pos += need
            length = HEADER.unpack(header)[3]
            if length:
                self._body_left = length
            else:
                done += 1
        return done

    @property
    def outstanding(self) -> int:
        return self.sent - self.received


def connect(port: int, codec: str, registry) -> socket.socket:
    """Open one loopback connection; negotiate the binary codec by HELLO."""
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if codec != "xml":
        hello = Message(MessageType.HELLO, 0, {"codecs": f"{codec},xml"})
        sock.sendall(encode_message(hello, registry))
        parser = StreamParser(registry)
        replies = []
        while not replies:
            data = sock.recv(4096)
            if not data:
                raise ConnectionError("server closed during HELLO")
            replies = parser.feed(data)
        ack = replies[0]
        if ack.msg_type is not MessageType.HELLO_ACK or ack.params.get("codec") != codec:
            raise RuntimeError(f"codec negotiation failed: {ack!r}")
    sock.setblocking(False)
    return sock


def _selector_for(conns) -> selectors.BaseSelector:
    # select(2) takes microsecond timeouts; epoll rounds up to 1 ms,
    # which would make the open loop's sends late by up to that much.
    selector = selectors.SelectSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    return selector


def _pump(selector, timeout: float, record_times: bool, on_replies=None) -> None:
    for key, _mask in selector.select(max(0.0, timeout)):
        conn = key.data
        done = conn.receive(record_times)
        if done and on_replies is not None:
            on_replies(conn, done)


def _drain(selector, conns, record_times: bool, on_replies=None) -> None:
    """Wait for every outstanding reply (or until ``DRAIN_S`` passes)."""
    deadline = time.perf_counter() + DRAIN_S
    while any(c.outstanding for c in conns):
        now = time.perf_counter()
        if now >= deadline:
            return
        for conn in conns:
            conn.flush()
        _pump(selector, min(0.05, deadline - now), record_times, on_replies)


def warm_up(conns, depth: int, requests: int) -> None:
    """A fixed number of requests per connection, ``depth`` in flight."""
    selector = _selector_for(conns)
    limits = {id(conn): conn.sent + requests for conn in conns}

    def refill(conn, done):
        conn.queue(min(done, limits[id(conn)] - conn.sent))
        conn.flush()

    try:
        for conn in conns:
            conn.queue(min(depth, requests))
            conn.flush()
        _drain(selector, conns, False, refill)
    finally:
        selector.close()


def closed_loop(conns, depth: int, seconds: float) -> tuple:
    """``depth`` requests in flight per connection for ``seconds``.

    Returns (replies, wall seconds) of the phase.
    """
    selector = _selector_for(conns)

    def refill(conn, done):
        conn.queue(done)
        conn.flush()

    def received():
        return sum(c.received for c in conns)

    try:
        for conn in conns:
            conn.queue(depth)
            conn.flush()
        base = received()
        now = start = time.perf_counter()
        end = start + seconds
        while now < end:
            _pump(selector, end - now, False, refill)
            now = time.perf_counter()
        replies = received() - base
        _drain(selector, conns, False)
    finally:
        selector.close()
    return replies, now - start


@dataclass
class OpenLoopResult:
    latencies_s: list = field(default_factory=list)
    lags_s: list = field(default_factory=list)
    sent: int = 0
    replied: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0


def open_loop(conns, offsets: list) -> OpenLoopResult:
    """Send on schedule; time every reply from its intended send time."""
    selector = _selector_for(conns)
    result = OpenLoopResult()
    for conn in conns:
        conn.intended = []
        conn.reply_times = []
    count = len(offsets)
    width = len(conns)
    cpu0 = time.thread_time()
    start = time.perf_counter() + 0.005
    lags = result.lags_s
    i = 0
    try:
        while i < count:
            now = time.perf_counter()
            while i < count and start + offsets[i] <= now:
                due = start + offsets[i]
                conn = conns[i % width]
                conn.intended.append(due)
                conn.queue(1)
                lags.append(now - due)
                i += 1
            for conn in conns:
                conn.flush()
            if i < count:
                _pump(selector, start + offsets[i] - time.perf_counter(), True)
        _drain(selector, conns, True)
        result.wall_s = time.perf_counter() - start
    finally:
        selector.close()
    result.cpu_s = time.thread_time() - cpu0
    for conn in conns:
        for due, got in zip(conn.intended, conn.reply_times):
            result.latencies_s.append(got - due)
        result.sent += len(conn.intended)
        result.replied += len(conn.reply_times)
    return result


@dataclass
class ServingRun:
    """What one server instance measured (set-up excluded)."""

    closed_replies: int
    closed_wall_s: float
    open: OpenLoopResult
    snaps: dict
    attempted: int
    failed: int
    #: descriptions of the first wrong replies
    mismatches: list


class Harness:
    """Generated inputs of one serving workload, reused across servers."""

    def __init__(self, workload: ServeWorkload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        #: CPUs this process may use, read before pinning narrows them
        self.cpus = sorted(os.sched_getaffinity(0))
        self.registry = make_registry()
        self.scripts = [
            build_script(workload, seed, conn)
            for conn in range(CONNECTIONS)
        ]
        self.frames = [
            encode_script(script, workload.codec, self.registry)
            for script in self.scripts
        ]
        self.closed_s = seconds * CLOSED_SHARE
        self.offsets = open_schedule(
            workload.open_rate, seconds - self.closed_s, seed, workload.name
        )

    def start(self, traced: bool) -> tuple:
        """Server start + connect + negotiate (+ preload, in the server)."""
        started = time.perf_counter()
        server = ServerProcess(self.workload, self.seed, traced)
        try:
            pin_cpus(server.proc.pid, self.cpus)
            conns = [
                Connection(connect(server.port, self.workload.codec,
                                   self.registry), frames)
                for frames in self.frames
            ]
        except BaseException:
            server.stop()
            raise
        return server, conns, time.perf_counter() - started

    def measure(self, server: ServerProcess, conns: list) -> ServingRun:
        """Warm-up, open loop, closed loop; snapshots of the server
        between phases; every reply checked at the end."""
        snaps = {"start": server.snap()}
        warm_up(conns, DEPTH, WARMUP_REQUESTS)
        snaps["warm"] = server.snap()
        result = open_loop(conns, self.offsets)
        snaps["open"] = server.snap()
        closed_replies, closed_wall_s = closed_loop(
            conns, DEPTH, self.closed_s
        )
        snaps["closed"] = server.snap()
        examples: list = []
        failed = sum(
            check_replies(b"".join(conn.chunks), script, conn.sent,
                          self.workload.codec, self.registry, examples)
            for conn, script in zip(conns, self.scripts)
        )
        attempted = sum(conn.sent for conn in conns)
        return ServingRun(closed_replies, closed_wall_s, result, snaps,
                          attempted, failed, examples)


def server_cpu_us_per_op(samples: list, window_s: float) -> list:
    """Server CPU per request in each window of at least ``window_s``,
    from the server's own ``(wall, CPU, requests)`` samples.

    Taking the median window keeps one garbage-collector pause or one
    burst of host contention from moving the figure.
    """
    windows = []
    first = samples[0] if samples else None
    for sample in samples[1:]:
        if sample[0] - first[0] >= window_s and sample[2] > first[2]:
            windows.append((sample[1] - first[1]) / (sample[2] - first[2]) * 1e6)
            first = sample
    return windows


def pin_cpus(server_pid: int, cpus: list) -> None:
    """Server on one CPU, this generator on another, when two are ours.

    Keeps the two processes from sharing or swapping a core between runs.
    """
    if len(cpus) >= 2:
        os.sched_setaffinity(server_pid, {cpus[0]})
        os.sched_setaffinity(0, {cpus[1]})


def close_all(server: ServerProcess, conns: list) -> None:
    for conn in conns:
        conn.sock.close()
    server.stop()


def set_up_median(harness: Harness, traced: bool) -> tuple:
    """Set up ``SETUP_REPS`` times; keep the last server, return the median."""
    times = []
    for rep in range(SETUP_REPS):
        server, conns, elapsed = harness.start(traced)
        times.append(elapsed)
        if rep < SETUP_REPS - 1:
            close_all(server, conns)
    return server, conns, median(times)


def lag_p99_s(result: OpenLoopResult) -> float:
    return percentile(result.lags_s, 99) if result.lags_s else 0.0


def fell_behind(result: OpenLoopResult) -> str | None:
    """Why the open loop did not keep its schedule, or None if it did."""
    if not result.lags_s:
        return None
    p50, last = percentile(result.lags_s, 50), result.lags_s[-1]
    if p50 > MAX_LAG_P50_S or last > MAX_FINAL_LAG_S:
        return (f"generator fell behind its schedule (send lag p50 "
                f"{p50 * 1e3:.2f} ms, last send {last * 1e3:.1f} ms late)")
    return None

