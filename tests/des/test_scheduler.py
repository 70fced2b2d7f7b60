"""The heap queue: ordering, cancellation, and a sorted() reference oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.event import Event
from repro.des.random_streams import StreamRegistry
from repro.des.scheduler import HeapScheduler


def make_event(time, seq, priority=0):
    return Event(time, seq, lambda: None, (), priority)


def pop_event(queue):
    """The event behind the next live entry (every entry here is pushed
    through ``push(event)``, so it carries its event)."""
    return queue.pop_entry()[3]


class TestBasics:
    def test_pop_returns_earliest(self):
        queue = HeapScheduler()
        queue.push(make_event(5.0, 1))
        queue.push(make_event(1.0, 2))
        queue.push(make_event(3.0, 3))
        assert pop_event(queue).time == 1.0
        assert pop_event(queue).time == 3.0
        assert pop_event(queue).time == 5.0

    def test_len_counts_pending(self):
        queue = HeapScheduler()
        assert len(queue) == 0
        queue.push(make_event(1.0, 1))
        queue.push(make_event(2.0, 2))
        assert len(queue) == 2
        queue.pop_entry()
        assert len(queue) == 1

    def test_pop_entry_empty_is_none(self):
        assert HeapScheduler().pop_entry() is None

    def test_cancelled_events_are_skipped(self):
        queue = HeapScheduler()
        first = make_event(1.0, 1)
        second = make_event(2.0, 2)
        queue.push(first)
        queue.push(second)
        first.cancel()
        queue.notify_cancelled()
        assert pop_event(queue) is second
        assert queue.pop_entry() is None

    def test_peek_time_empty_is_none(self):
        assert HeapScheduler().peek_time() is None

    def test_peek_time_skips_cancelled(self):
        queue = HeapScheduler()
        first = make_event(1.0, 1)
        queue.push(first)
        queue.push(make_event(4.0, 2))
        first.cancel()
        queue.notify_cancelled()
        assert queue.peek_time() == 4.0

    def test_fifo_for_equal_times(self):
        queue = HeapScheduler()
        events = [make_event(1.0, seq) for seq in range(1, 6)]
        for event in events:
            queue.push(event)
        assert [pop_event(queue).seq for _ in events] == [1, 2, 3, 4, 5]

    def test_priority_orders_within_time(self):
        queue = HeapScheduler()
        queue.push(make_event(1.0, 1, priority=5))
        queue.push(make_event(1.0, 2, priority=-5))
        assert pop_event(queue).priority == -5


def _earliest(live):
    """The reference answer: the minimum live event under sorted()."""
    return sorted(live, key=lambda event: event.sort_key)[0]


def test_parity_on_randomized_push_cancel_pop_workloads():
    """Under a mixed push/cancel/pop workload (seeded via the
    deterministic stream registry, like every other stochastic
    component) the heap pops exactly what a sorted() of the live events
    says comes next."""
    registry = StreamRegistry(master_seed=0x5EED)
    for case in range(6):
        rng = registry.stream(f"scheduler-parity-{case}")
        queue = HeapScheduler()
        live: list[Event] = []
        seq = 0
        pops = 0
        for _ in range(800):
            action = rng.random()
            if action < 0.55 or not live:
                seq += 1
                event = make_event(
                    rng.uniform(0.0, 40.0), seq, rng.choice((-1, 0, 1))
                )
                queue.push(event)
                live.append(event)
            elif action < 0.70:
                event = live.pop(rng.randrange(len(live)))
                assert event.cancel()
                queue.notify_cancelled()
            else:
                expected = _earliest(live)
                assert pop_event(queue) is expected
                live.remove(expected)
                pops += 1
        assert pops > 0
        assert len(queue) == len(live)
        drained = [pop_event(queue) for _ in range(len(live))]
        assert drained == sorted(live, key=lambda event: event.sort_key)
        assert queue.pop_entry() is None


def test_out_of_order_pushes_behind_last_pop():
    """Pushing events earlier than the last popped time still pops them
    first, in sorted order."""
    registry = StreamRegistry(master_seed=7)
    rng = registry.stream("scheduler-rewind")
    queue = HeapScheduler()
    live = [make_event(rng.uniform(0.0, 60.0), seq) for seq in range(120)]
    for event in live:
        queue.push(event)
    for _ in range(60):
        expected = _earliest(live)
        assert pop_event(queue) is expected
        live.remove(expected)
    # Out-of-order inserts: strictly before every remaining event.
    for seq in range(1000, 1020):
        event = make_event(rng.uniform(0.0, 0.01), seq)
        queue.push(event)
        live.append(event)
    order = [pop_event(queue) for _ in range(len(live))]
    assert order == sorted(live, key=lambda event: event.sort_key)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_heap_pops_in_sorted_order(times):
    queue = HeapScheduler()
    for seq, t in enumerate(times):
        queue.push(make_event(t, seq))
    order = [(e.time, e.seq) for e in (pop_event(queue) for _ in times)]
    assert order == sorted((t, seq) for seq, t in enumerate(times))
