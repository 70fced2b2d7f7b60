"""Metrics of one benchmark run: what is measured and how it is reported.

``run.py`` calls one of the four ``*_end_to_end``/``*_traced`` functions;
each fills a :class:`Report` with its metrics (by the names and units of
``BENCHMARK.json``), its correctness counts and readable notes.
"""

from __future__ import annotations

from statistics import median

from estimation import LAYERS, profiled_run
from loadgen import (
    CLOSED_WINDOW_S,
    OPEN_WINDOW_S,
    Harness,
    close_all,
    fell_behind,
    lag_p99_s,
    server_cpu_us_per_op,
    set_up_median,
)
from measure import peak_rss_mb, percentile
from serving import CONNECTIONS, DEPTH

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "throughput_per_s": "1/s",
    "cpu_us_per_op": "us",
    "setup_s": "s",
    "rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  A layer a workload does not run
#: reports 0.
PER_LAYER = {
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "aio.self_us_per_op": "us",
    "aio.requests_per_read": "count",
    "aio.bytes_out_per_op": "B",
    "aio.backpressure_pauses": "count",
    "protocol.self_us_per_op": "us",
    "bincodec.decode_us": "us",
    "bincodec.encode_us": "us",
    "xmlcodec.decode_us": "us",
    "xmlcodec.encode_us": "us",
    "codec.req_bytes": "B",
    "codec.reply_bytes": "B",
    "server.self_us_per_op": "us",
    "space.write_us": "us",
    "space.read_us": "us",
    "space.take_us": "us",
    "space.miss_frac": "ratio",
    "space.expirations": "count",
    "server.cpu_util": "ratio",
    "loadgen.cpu_util": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "des.self_s": "s",
    "tpwire.bus.self_s": "s",
    "tpwire.slave.self_s": "s",
    "tpwire.master.self_s": "s",
    "tpwire.transport.self_s": "s",
    "tpwire.other.self_s": "s",
    "net.self_s": "s",
    "core.self_s": "s",
    "cosim.self_s": "s",
    "hw.self_s": "s",
    "tpwire.tx_frames": "count",
    "tpwire.rx_frames": "count",
    "master.transactions": "count",
    "master.retry_frac": "ratio",
    "tpwire.crc_errors": "count",
    "tpwire.timeouts": "count",
    "tpwire.utilization": "ratio",
    "client.write_s": "s",
    "client.take_s": "s",
    "server.requests": "count",
    "sim_err_pct": "%",
    "cells_per_s": "1/s",
    "trace.overhead_pct": "%",
    "reconcile.residual_pct": "%",
}

#: Per-layer self times must add up to the measured whole within this.
RECONCILE_TOLERANCE_PCT = 10.0

class Report:
    """Collects metrics, check failures and the human-readable lines."""

    def __init__(self, names: dict):
        self.units = names
        self.values = dict.fromkeys(names, 0.0)
        self.problems: list = []
        self.attempted = 0
        self.failed = 0

    def set(self, name: str, value: float) -> None:
        if name not in self.units:
            raise KeyError(f"unknown metric {name}")
        self.values[name] = float(value)

    def note(self, text: str) -> None:
        print(f"  {text}")

    def finish(self) -> dict:
        """Print the summary lines; return the result object."""
        if self.attempted:
            self.note(f"failed_frac {self.failed / self.attempted:.6f} "
                      f"({self.failed}/{self.attempted})")
        for problem in self.problems:
            self.note(f"PROBLEM: {problem}")
        for name, unit in self.units.items():
            self.note(f"{name} = {self.values[name]:.6g} {unit}")
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.values[name], "unit": unit}
                for name, unit in self.units.items()
            },
        }


# -- serving -----------------------------------------------------------------


def _server_cpu_us_per_op(run, phase: str) -> float:
    window_s = OPEN_WINDOW_S if phase == "open" else CLOSED_WINDOW_S
    return median(server_cpu_us_per_op(run.snaps[phase]["samples"], window_s))


def serving_end_to_end(report: Report, workload, seed: int, seconds: float) -> None:
    harness = Harness(workload, seed, seconds)
    server, conns, setup_s = set_up_median(harness, traced=False)
    try:
        run = harness.measure(server, conns)
    finally:
        close_all(server, conns)
    snaps = run.snaps
    capacity = 1e6 / _server_cpu_us_per_op(run, "closed")
    cpu_us = _server_cpu_us_per_op(run, "open")
    rss_mb = snaps["open"]["rss_mb"]
    report.set("throughput_per_s", capacity)
    report.set("cpu_us_per_op", cpu_us)
    report.set("setup_s", setup_s)
    report.set("rss_mb", rss_mb)

    latencies = run.open.latencies_s
    requests = snaps["open"]["stats"]["requests"] - snaps["warm"]["stats"]["requests"]
    phase_cpu_us = (snaps["open"]["cpu_s"] - snaps["warm"]["cpu_s"]) / requests * 1e6
    lag = lag_p99_s(run.open)
    report.note(f"capacity_ops_s {capacity:.1f} req per server CPU-second "
                f"(closed loop, {DEPTH} in flight x "
                f"{CONNECTIONS} connections; raw wall rate "
                f"{run.closed_replies / run.closed_wall_s:.1f} req/s)")
    report.note(f"cpu_us_per_op {cpu_us:.2f} us: server process, median of "
                f"open-loop windows (whole phase {phase_cpu_us:.2f} us)")
    report.note(f"lat_p50_ms {percentile(latencies, 50) * 1e3:.4f} ms, "
                f"lat_p99_ms {percentile(latencies, 99) * 1e3:.4f} ms "
                f"(open loop at {workload.open_rate:.0f} req/s, "
                f"{len(latencies)} samples; per-layer, see README)")
    report.note(f"setup_s {setup_s:.4f} s: median of start+preload+connect+negotiate")
    report.note(f"rss_mb {rss_mb:.1f} MB: server peak after warm-up and open loop")
    report.note(f"loadgen lag p99 {lag * 1e3:.3f} ms")
    _serving_checks(report, run)


def _serving_checks(report: Report, run) -> None:
    report.attempted += run.attempted
    report.failed += run.failed
    for mismatch in run.mismatches:
        report.note(f"CHECK FAILED: {mismatch}")
    if run.open.replied < run.open.sent:
        report.problems.append(f"{run.open.sent - run.open.replied} open-loop "
                               "requests got no reply")
    behind = fell_behind(run.open)
    if behind is not None:
        report.problems.append(f"invalid run: {behind}")


def serving_traced(report: Report, workload, seed: int, seconds: float) -> None:
    harness = Harness(workload, seed, seconds / 2)
    runs = {}
    for traced in (False, True):
        server, conns, _setup = harness.start(traced)
        try:
            runs[traced] = harness.measure(server, conns)
        finally:
            close_all(server, conns)
    base, run = runs[False], runs[True]
    snaps = run.snaps
    warm, opened, closed = snaps["warm"], snaps["open"], snaps["closed"]

    # Open loop (warm -> open): per-op costs, as cpu_us_per_op.
    trace = opened["trace"]
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    requests = opened["stats"]["requests"] - warm["stats"]["requests"]
    wall = opened["wall_s"] - warm["wall_s"]
    cpu = opened["cpu_s"] - warm["cpu_s"]
    loop_cpu = opened["loop_cpu_s"] - warm["loop_cpu_s"]
    aio_self = loop_cpu - trace["top_level_s"]

    def per_op_us(*names) -> float:
        return sum(self_s.get(n, 0.0) for n in names) / requests * 1e6

    def per_call_us(name) -> float:
        return self_s.get(name, 0.0) / calls[name] * 1e6 if calls.get(name) else 0.0

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    decodes = calls.get("xmlcodec.decode", 0) + calls.get("bincodec.decode", 0)
    encodes = calls.get("xmlcodec.encode", 0) + calls.get("bincodec.encode", 0)
    space0, space1 = warm["space"], opened["space"]
    lookups = sum(space1[k] - space0[k] for k in ("reads", "takes", "misses"))
    # Closed loop (open -> closed): batching and backpressure.
    closed_trace = closed["trace"]
    layers_s = aio_self + sum(self_s.values())
    residual_pct = (cpu - layers_s) / cpu * 100.0
    base_cpu_us = _server_cpu_us_per_op(base, "open")
    traced_cpu_us = _server_cpu_us_per_op(run, "open")
    overhead_pct = (traced_cpu_us / base_cpu_us - 1.0) * 100.0
    lag = lag_p99_s(run.open)

    report.set("lat_p50_ms", percentile(base.open.latencies_s, 50) * 1e3)
    report.set("lat_p99_ms", percentile(base.open.latencies_s, 99) * 1e3)
    report.set("aio.self_us_per_op", aio_self / requests * 1e6)
    report.set("aio.requests_per_read",
               ratio(closed_trace["counts"]["feed_messages"],
                     closed_trace["calls"].get("protocol.feed", 0)))
    report.set("aio.bytes_out_per_op",
               (opened["stats"]["bytes_out"] - warm["stats"]["bytes_out"]) / requests)
    report.set("aio.backpressure_pauses",
               closed["stats"]["backpressure_pauses"]
               - opened["stats"]["backpressure_pauses"])
    report.set("protocol.self_us_per_op", per_op_us("protocol.feed", "protocol.encode"))
    for layer in ("bincodec", "xmlcodec"):
        report.set(f"{layer}.decode_us", per_call_us(f"{layer}.decode"))
        report.set(f"{layer}.encode_us", per_call_us(f"{layer}.encode"))
    report.set("codec.req_bytes", ratio(counts["req_bytes"], decodes))
    report.set("codec.reply_bytes", ratio(counts["reply_bytes"], encodes))
    report.set("server.self_us_per_op", per_op_us("server.handle"))
    for op in ("write", "read", "take"):
        report.set(f"space.{op}_us", per_call_us(f"space.{op}"))
    report.set("space.miss_frac", ratio(space1["misses"] - space0["misses"], lookups))
    report.set("space.expirations", space1["expirations"] - space0["expirations"])
    report.set("server.cpu_util", cpu / wall)
    report.set("loadgen.cpu_util", run.open.cpu_s / run.open.wall_s)
    report.set("loadgen.lag_p99_ms", lag * 1e3)
    report.set("server.requests",
               opened["stats"]["requests_handled"] - warm["stats"]["requests_handled"])
    report.set("trace.overhead_pct", overhead_pct)
    report.set("reconcile.residual_pct", residual_pct)

    report.note(f"traced open loop: {requests} requests, {wall:.4f} s wall, "
                f"server CPU {cpu:.4f} s, of it event-loop thread {loop_cpu:.4f} s")
    for name in sorted(self_s):
        report.note(f"  span {name:<16} self {self_s[name]:.4f} s "
                    f"over {calls[name]} calls")
    report.note(f"  aio (loop thread CPU minus top-level spans) {aio_self:.4f} s")
    report.note(f"reconcile: layers sum {layers_s:.4f} s vs server CPU {cpu:.4f} s, "
                f"residual {residual_pct:+.2f}% (tolerance "
                f"{RECONCILE_TOLERANCE_PCT:.0f}%)")
    report.note(f"tracing overhead: cpu_us_per_op {base_cpu_us:.2f} -> "
                f"{traced_cpu_us:.2f} us ({overhead_pct:+.1f}%)")
    for r in (base, run):
        _serving_checks(report, r)
    if abs(residual_pct) > RECONCILE_TOLERANCE_PCT:
        report.problems.append(f"serving layers do not reconcile: {residual_pct:+.2f}%")


# -- estimation ----------------------------------------------------------------


def estimation_end_to_end(report: Report, workload, seconds: float) -> None:
    stats = workload.run_for(seconds)
    frames = stats.frames_per_sweep
    cells = stats.cells // stats.sweeps
    sweep_s = stats.sweep_s()
    cpu_us = stats.sweep_s("cpu_s") / frames * 1e6
    setup_s = stats.sweep_s("setup_s")
    report.set("throughput_per_s", frames / sweep_s)
    report.set("cpu_us_per_op", cpu_us)
    report.set("setup_s", setup_s)
    report.set("rss_mb", peak_rss_mb())
    report.note(f"frames_per_s {frames / sweep_s:.1f} frames/s: {frames} simulated "
                f"frames per sweep (raw {frames * stats.sweeps / sum(stats.wall_s):.1f})")
    report.note(f"cells_per_s {cells / sweep_s:.3f} runs/s "
                f"({stats.sweeps} sweeps of {cells} runs)")
    report.note(f"cpu_us_per_op {cpu_us:.3f} us per simulated frame")
    report.note(f"setup_s {setup_s:.6f} s per sweep (scenario construction)")
    report.note(f"sim_err_pct {workload.sim_err_pct():.4f} %")
    _estimation_checks(report, stats)


def _estimation_checks(report: Report, stats) -> None:
    report.attempted += stats.cells
    report.failed += min(stats.cells, len(stats.errors))
    for error in stats.errors[:10]:
        report.note(f"CHECK FAILED: {error}")


def estimation_traced(report: Report, workload, seconds: float) -> None:
    base = workload.run_for(seconds / 2)
    traced, layers, host_s = profiled_run(workload, seconds / 2)
    counts, runs = workload.observed_sweep()
    observed_errors = workload.check(runs)
    for name, value in counts.items():
        report.set(name, value)
    for layer in LAYERS:
        report.set(f"{layer}.self_s", layers.get(layer, 0.0) / traced.sweeps)
    total = sum(layers.values())
    residual_pct = (host_s - total) / host_s * 100.0
    # Raw sweep times: the profiler slows the reference loop too.
    overhead_pct = (median(traced.wall_s) / median(base.wall_s) - 1.0) * 100.0
    cell_s = [run.run_s for run in base.runs]
    report.set("lat_p50_ms", percentile(cell_s, 50) * 1e3)
    report.set("lat_p99_ms", percentile(cell_s, 99) * 1e3)
    report.set("sim_err_pct", workload.sim_err_pct())
    report.set("cells_per_s", base.cells / base.sweeps / base.sweep_s())
    report.set("trace.overhead_pct", overhead_pct)
    report.set("reconcile.residual_pct", residual_pct)
    report.note(f"profiled {traced.sweeps} sweeps in {host_s:.4f} s host time")
    for layer in sorted(layers, key=layers.get, reverse=True):
        report.note(f"  {layer:<18} {layers[layer]:.4f} s "
                    f"({layers[layer] / host_s:6.1%})")
    report.note(f"reconcile: layers sum {total:.4f} s vs host {host_s:.4f} s, "
                f"residual {residual_pct:+.2f}% (tolerance "
                f"{RECONCILE_TOLERANCE_PCT:.0f}%)")
    report.note(f"tracing overhead: {median(base.wall_s):.4f} -> "
                f"{median(traced.wall_s):.4f} s per sweep ({overhead_pct:+.1f}%)")
    for stats in (base, traced):
        _estimation_checks(report, stats)
    report.attempted += len(runs)
    report.failed += min(len(runs), len(observed_errors))
    if abs(residual_pct) > RECONCILE_TOLERANCE_PCT:
        report.problems.append(f"estimation layers do not reconcile: {residual_pct:+.2f}%")
