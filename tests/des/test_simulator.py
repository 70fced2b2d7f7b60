"""Simulator run loop: scheduling, clock, stop conditions."""

import pytest

from repro.des import Simulator
from repro.des.errors import SchedulerError


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_after_fires_in_order(self, sim):
        log = []
        sim.after(2.0, log.append, "b")
        sim.after(1.0, log.append, "a")
        sim.after(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_at_absolute_time(self, sim):
        seen = []
        sim.at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_scheduling_in_past_raises(self, sim):
        sim.after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulerError):
            sim.at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SchedulerError):
            sim.after(-1.0, lambda: None)

    def test_nested_scheduling(self, sim):
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.after(1.0, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.after(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_cancel_pending_event(self, sim):
        log = []
        event = sim.after(1.0, log.append, "x")
        assert sim.cancel(event) is True
        sim.run()
        assert log == []

    def test_cancel_fired_event_returns_false(self, sim):
        event = sim.after(1.0, lambda: None)
        sim.run()
        assert sim.cancel(event) is False

    def test_same_time_fifo(self, sim):
        log = []
        for i in range(10):
            sim.after(1.0, log.append, i)
        sim.run()
        assert log == list(range(10))

    def test_priority_beats_seq_at_same_time(self, sim):
        log = []
        sim.after(1.0, log.append, "normal")
        sim.after(1.0, log.append, "urgent", priority=-1)
        sim.run()
        assert log == ["urgent", "normal"]

    def test_cancel_then_reschedule_same_time(self, sim):
        log = []
        stale = sim.after(2.0, log.append, "stale")
        assert sim.cancel(stale) is True
        sim.after(2.0, log.append, "fresh")
        assert sim.pending_events == 1
        sim.run()
        assert log == ["fresh"]
        assert sim.pending_events == 0


class TestZeroDelayChains:
    def test_chain_runs_in_schedule_order(self, sim):
        # chain(0) fires first (lower seq), then the already-queued peer,
        # then each zero-delay link in the order it was scheduled.
        log = []

        def chain(n):
            log.append(n)
            if n < 5:
                sim.after(0.0, chain, n + 1)

        sim.after(1.0, chain, 0)
        sim.after(1.0, log.append, "peer")
        sim.run()
        assert log == [0, "peer", 1, 2, 3, 4, 5]
        assert sim.now == 1.0

    def test_priority_wins_within_the_draining_timestamp(self, sim):
        log = []

        def first():
            log.append("first")
            sim.after(0.0, log.append, "normal")
            sim.after(0.0, log.append, "urgent", priority=-1)

        sim.after(1.0, first)
        sim.run()
        assert log == ["first", "urgent", "normal"]


def test_firing_order_under_load_is_time_then_schedule_order(sim):
    rng = sim.stream("firing-order-under-load")
    times = [rng.uniform(0.0, 50.0) for _ in range(3000)]
    fired = []
    for i, t in enumerate(times):
        sim.at(t, fired.append, i)
    sim.run()
    assert fired == sorted(range(len(times)), key=lambda i: (times[i], i))


class TestRunLoop:
    def test_run_until_advances_clock_exactly(self, sim):
        sim.after(1.0, lambda: None)
        end = sim.run(until=10.0)
        assert end == 10.0
        assert sim.now == 10.0

    def test_run_until_does_not_fire_later_events(self, sim):
        log = []
        sim.after(5.0, log.append, "early")
        sim.after(15.0, log.append, "late")
        sim.run(until=10.0)
        assert log == ["early"]
        assert sim.pending_events == 1

    def test_run_resumes_after_until(self, sim):
        log = []
        sim.after(15.0, log.append, "late")
        sim.run(until=10.0)
        sim.run()
        assert log == ["late"]

    def test_stop_halts_immediately(self, sim):
        log = []
        sim.after(1.0, lambda: (log.append("a"), sim.stop()))
        sim.after(2.0, log.append, "b")
        sim.run()
        assert log == ["a"]

    def test_max_events_limit(self, sim):
        log = []
        for i in range(10):
            sim.after(float(i + 1), log.append, i)
        sim.run(max_events=3)
        assert log == [0, 1, 2]

    def test_empty_run_returns_current_time(self, sim):
        assert sim.run() == 0.0

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_reentrant_run_raises(self, sim):
        def recurse():
            sim.run()

        sim.after(1.0, recurse)
        with pytest.raises(SchedulerError):
            sim.run()


class TestStreams:
    def test_streams_deterministic_across_instances(self):
        a = Simulator(seed=99).stream("traffic").random()
        b = Simulator(seed=99).stream("traffic").random()
        assert a == b

    def test_streams_differ_by_name(self):
        sim = Simulator(seed=1)
        assert sim.stream("a").random() != sim.stream("b").random()

    def test_stream_is_cached(self):
        sim = Simulator()
        assert sim.stream("x") is sim.stream("x")
