"""Self-tests of the benchmark: inputs, self-time arithmetic, output checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import estimation
import report
import run
from estimation import Cell, CellRun, Table4Sweep, fold_profile, layer_of
from serving import (
    SHORT_LEASE_S,
    WORKLOADS,
    build_script,
    check_replies,
    make_registry,
    open_schedule,
    resident_entries,
)
from spans import SpanRecorder, fold

from repro.core.protocol import Message, MessageType, encode_message, make_wire_codec

ROOT = Path(__file__).resolve().parents[2]


# -- same seed, same inputs ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_script_and_schedule(name):
    workload = WORKLOADS[name]

    def inputs(seed):
        scripts = [build_script(workload, seed, conn) for conn in range(2)]
        return (
            [[(m.msg_type, m.request_id, m.params, repr(m.item)) for m in s.messages]
             for s in scripts],
            [s.expects for s in scripts],
            open_schedule(workload.open_rate, 1.0, seed, name),
        )

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_resident_preload_depends_only_on_seed():
    workload = WORKLOADS["serve-xml-resident"]
    assert resident_entries(workload, 3)[:50] == resident_entries(workload, 3)[:50]
    assert resident_entries(workload, 3)[:50] != resident_entries(workload, 4)[:50]


def test_estimation_order_and_noise_seed_follow_the_seed():
    def order(seed):
        workload = Table4Sweep(seed)
        cells = workload.cells()
        workload._rng.shuffle(cells)
        return workload.noisy_seed, cells

    assert order(5) == order(5)
    assert order(5) != order(6)


# -- self-time arithmetic ------------------------------------------------------


def test_fold_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1, 1),
        ("b", 1.0, 4.0, 0, 1),
        ("c", 2.0, 3.0, 1, 1),
        ("d", 5.0, 9.0, 0, 1),
        ("a", 11.0, 12.0, -1, 2),
    ]
    folded = fold(spans)
    assert folded.self_s == pytest.approx({"a": 4.0, "b": 2.0, "c": 1.0, "d": 4.0})
    assert folded.calls == {"a": 2, "b": 1, "c": 1, "d": 1}
    assert folded.top_level_s == pytest.approx(11.0)
    assert sum(folded.self_s.values()) == pytest.approx(folded.top_level_s)


def test_recorder_nests_spans_and_inherits_request_ids():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda rid: inner(rid), lambda args: args[0])
    assert outer(42) == 43
    spans = recorder.drain()
    by_name = {span[0]: span for span in spans}
    assert by_name["outer"][3] == -1
    assert spans[by_name["inner"][3]][0] == "outer"
    assert by_name["inner"][4] == 42
    assert recorder.drain() == []
    folded = fold(spans)
    assert folded.self_s["outer"] == pytest.approx(3.0 - 1.0)


def test_fold_profile_charges_builtins_to_their_callers():
    bus = ("/x/src/repro/tpwire/bus.py", 1, "cycle")
    des = ("/x/src/repro/des/simulator.py", 1, "run")
    heap = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        des: (1, 1, 2.0, 10.0, {}),
        bus: (1, 1, 3.0, 5.0, {des: (1, 1, 3.0, 5.0)}),
        heap: (4, 4, 4.0, 4.0, {bus: (1, 1, 1.0, 1.0), des: (3, 3, 3.0, 3.0)}),
    }
    layers = fold_profile(stats)
    assert layers == pytest.approx({"des": 5.0, "tpwire.bus": 4.0})
    assert sum(layers.values()) == pytest.approx(9.0)


def test_layer_of_maps_modules():
    assert layer_of("/a/src/repro/tpwire/slave.py") == "tpwire.slave"
    assert layer_of("/a/src/repro/tpwire/frames.py") == "tpwire.other"
    assert layer_of("/a/src/repro/hw/tpwire_phy.py") == "hw"
    assert layer_of("/usr/lib/python3.11/heapq.py") is None


# -- output checks feed failed ---------------------------------------------------


def _replies(script, codec, registry, corrupt=None, lease_error=0.0):
    wire = make_wire_codec(codec, registry)
    frames = []
    for k, (message, expect) in enumerate(zip(script.messages, script.expects)):
        params = {}
        if expect.reply is MessageType.WRITE_ACK:
            params = {"lease_id": k + 1, "granted": expect.granted + lease_error}
        reply = Message(expect.reply, message.request_id, params, expect.item)
        if k == corrupt:
            reply = Message(MessageType.RESULT_NULL, message.request_id)
        frames.append(encode_message(reply, wire))
    return b"".join(frames)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_replies_accepts_expected_and_flags_corruption(name):
    workload = WORKLOADS[name]
    registry = make_registry()
    script = build_script(workload, 1, 0)
    count = len(script)
    good = _replies(script, workload.codec, registry)

    def check(data, expected_count=count):
        examples = []
        return check_replies(data, script, expected_count, workload.codec,
                             registry, examples), examples

    assert check(good) == (0, [])
    # a wrong reply, a missing one, a cut frame
    corrupt = next(k for k, e in enumerate(script.expects)
                   if e.reply is not MessageType.RESULT_NULL)
    wrong, examples = check(_replies(script, workload.codec, registry, corrupt))
    assert wrong == 1 and f"reply {corrupt} " in examples[0]
    assert check(good, count + 1)[0] == 1
    assert check(good[:-3])[0] >= 1


def test_lease_grant_allows_clock_rounding_only():
    workload = WORKLOADS["serve-xml-resident"]
    registry = make_registry()
    script = build_script(workload, 1, 0)
    short_writes = sum(1 for e in script.expects if e.granted == SHORT_LEASE_S)

    def wrong(lease_error):
        data = _replies(script, "xml", registry, lease_error=lease_error)
        return check_replies(data, script, len(script), "xml", registry, [])

    # one ulp of a clock reading near 2**10 s; FOREVER stays inf either way
    assert wrong(1.1368683772161603e-13) == 0
    assert wrong(0.01) == short_writes > 0


def _table4_runs(noisy_times):
    runs = []
    for key, elapsed in estimation.TABLE4_CLEAN.items():
        out_of_time = elapsed is None
        runs.append(CellRun(Cell(key), 1, (201.46 if out_of_time else elapsed,
                                           out_of_time, 1, 1)))
    for (wires, cbr), elapsed in noisy_times.items():
        runs.append(CellRun(Cell((wires, cbr), noisy=True), 1,
                            (elapsed, (wires, cbr) == (1, 1.0), 1, 1)))
    return runs


NOISY = {(1, 0.0): 152.9, (1, 0.3): 169.3, (1, 1.0): 203.9,
         (2, 0.0): 134.9, (2, 0.3): 146.9, (2, 1.0): 211.5}


def test_table4_check_passes_on_reference_values():
    assert Table4Sweep(1).check_sweep(_table4_runs(NOISY)) == []


def test_perturbed_table4_reference_fails(monkeypatch):
    runs = _table4_runs(NOISY)
    perturbed = dict(estimation.TABLE4_CLEAN)
    perturbed[(2, 0.3)] += 0.001
    monkeypatch.setattr(estimation, "TABLE4_CLEAN", perturbed)
    errors = Table4Sweep(1).check_sweep(runs)
    assert errors and "(2, 0.3)" in errors[0]


def test_noisy_shape_violation_fails():
    flat = dict(NOISY)
    flat[(2, 0.3)] = flat[(2, 1.0)] + 1
    assert Table4Sweep(1).check_sweep(_table4_runs(flat))


def test_failed_checks_make_the_result_incorrect():
    result = report.Report(report.END_TO_END)
    result.attempted, result.failed = 10, 1
    final = result.finish()
    assert final["correct"] is False and final["failed"] == 1


# -- BENCHMARK.json agrees with the metrics the run prints ------------------------


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == report.END_TO_END
    assert per_layer == report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.SERVING + run.ESTIMATION)
