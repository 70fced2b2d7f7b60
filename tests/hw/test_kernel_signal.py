"""Delta-cycle kernel and signals: evaluate/update semantics."""

import pytest

from repro.cosim import ValidationScenario
from repro.des import Simulator
from repro.hw import (
    BitLevelTpwireBus,
    HwKernel,
    HwModule,
    PhyTiming,
    Signal,
    wait_change,
    wait_posedge,
    wait_time,
)
from repro.tpwire import BusTiming, TpwireMaster, TpwireSlave


@pytest.fixture
def world():
    sim = Simulator()
    return sim, HwKernel(sim)


class TestSignalSemantics:
    def test_write_commits_in_update_phase(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        observed = []

        class Watcher(HwModule):
            def build(self):
                self.method(self.observe, sensitive=[sig], initialize=False)

            def observe(self):
                observed.append(sig.read())

        Watcher(kernel)
        sig.write(5)
        assert sig.read() == 0  # not yet committed
        sim.run()
        assert sig.read() == 5
        assert observed == [5]

    def test_last_write_in_delta_wins(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        sig.write(1)
        sig.write(2)
        sim.run()
        assert sig.read() == 2

    def test_no_notification_for_same_value(self, world):
        sim, kernel = world
        sig = Signal(kernel, 7)
        fired = []

        class Watcher(HwModule):
            def build(self):
                self.method(lambda: fired.append(1), sensitive=[sig],
                            initialize=False)

        Watcher(kernel)
        sig.write(7)
        sim.run()
        assert fired == []

    def test_swap_through_signals_is_race_free(self, world):
        """The classic two-process swap that breaks without delta cycles."""
        sim, kernel = world
        a = Signal(kernel, 1)
        b = Signal(kernel, 2)
        clk = Signal(kernel, 0)

        class Swapper(HwModule):
            def build(self):
                self.method(self.move_a, sensitive=[clk], initialize=False)
                self.method(self.move_b, sensitive=[clk], initialize=False)

            def move_a(self):
                a.write(b.read())

            def move_b(self):
                b.write(a.read())

        Swapper(kernel)
        clk.write(1)
        sim.run()
        assert (a.read(), b.read()) == (2, 1)

    def test_last_change_time(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        sim.after(3.0, sig.write, 1)
        sim.run()
        assert sig.last_change_time == 3.0


class TestThreadProcesses:
    def test_wait_time(self, world):
        sim, kernel = world
        log = []

        class Timed(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                yield wait_time(1.5)
                log.append(sim.now)
                yield wait_time(1.5)
                log.append(sim.now)

        Timed(kernel)
        sim.run()
        assert log == [1.5, 3.0]

    def test_wait_change_resumes_on_commit(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        log = []

        class Waiter(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                yield wait_change(sig)
                log.append((sim.now, sig.read()))

        Waiter(kernel)
        sim.after(2.0, sig.write, 9)
        sim.run()
        assert log == [(2.0, 9)]

    def test_wait_posedge_ignores_negedge(self, world):
        sim, kernel = world
        sig = Signal(kernel, 1)
        log = []

        class EdgeWaiter(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                yield wait_posedge(sig)
                log.append(sim.now)

        EdgeWaiter(kernel)
        sim.after(1.0, sig.write, 0)   # negedge: ignored
        sim.after(2.0, sig.write, 1)   # posedge: fires
        sim.run()
        assert log == [2.0]

    def test_thread_completion(self, world):
        sim, kernel = world

        class Finite(HwModule):
            def build(self):
                self.proc = self.thread(self.run)

            def run(self):
                yield wait_time(1.0)

        module = Finite(kernel)
        sim.run()
        assert module.proc.finished

    def test_thread_yielding_garbage_raises(self, world):
        sim, kernel = world

        class Bad(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                yield 42

        Bad(kernel)
        with pytest.raises(TypeError):
            sim.run()

    def test_kernel_keeps_working_after_a_process_raises(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)

        class Bad(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                sig.write(1)
                yield 42

        Bad(kernel)
        with pytest.raises(TypeError):
            sim.run()
        sim.run()
        assert sig.read() == 1
        sim.after(1.0, sig.write, 2)
        sim.run()
        assert sig.read() == 2

    def test_wait_time_validation(self):
        with pytest.raises(ValueError):
            wait_time(-1.0)


class TestDeltaCycles:
    def test_chained_updates_take_multiple_deltas(self, world):
        sim, kernel = world
        a = Signal(kernel, 0)
        b = Signal(kernel, 0)

        class Chain(HwModule):
            def build(self):
                self.method(self.copy, sensitive=[a], initialize=False)

            def copy(self):
                b.write(a.read())

        Chain(kernel)
        a.write(3)
        sim.run()
        assert b.read() == 3
        assert kernel.delta_count >= 2

    def test_settle_runs_pending_deltas(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        sig.write(1)
        kernel.settle()
        assert sig.read() == 1

    def test_write_without_listeners_takes_no_extra_delta(self, world):
        """The update phase that commits a write needs no delta of its own."""
        sim, kernel = world
        sig = Signal(kernel, 0)

        class Writer(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                sig.write(1)
                yield wait_time(1.0)

        Writer(kernel)
        sim.run()
        assert sig.read() == 1
        assert kernel.delta_count == 2

    def test_same_time_wakeups_run_in_separate_deltas_in_schedule_order(
        self, world
    ):
        sim, kernel = world
        sig = Signal(kernel, 0)
        log = []

        class Sleeper(HwModule):
            def __init__(self, kernel, name):
                self.tag = name
                super().__init__(kernel, name)

            def build(self):
                self.thread(self.run)

            def run(self):
                yield wait_time(1.0)
                log.append((self.tag, kernel.delta_count, sig.read()))
                sig.write(sig.read() + 1)

        Sleeper(kernel, "first")
        Sleeper(kernel, "second")
        sim.run()
        # The second sleeper runs in a later delta and sees the first
        # sleeper's write already committed.
        (first, d1, v1), (second, d2, v2) = log
        assert (first, second) == ("first", "second")
        assert d2 > d1
        assert (v1, v2) == (0, 1)

    def test_figure6_bit_level_run_delta_steps(self):
        scenario = ValidationScenario(bit_level=True)
        scenario.run(30)
        assert scenario.system.bus.kernel.delta_count == 99_447


class TestStopInsideDeltas:
    """``sim.stop()`` from a hw process leaves the rest for the next run."""

    @staticmethod
    def chain(stop_at):
        sim = Simulator()
        kernel = HwKernel(sim)
        a = Signal(kernel, 0)
        b = Signal(kernel, 0)
        log = []

        class Chain(HwModule):
            def build(self):
                self.thread(self.drive)
                self.method(self.copy, sensitive=[a], initialize=False)
                self.method(self.watch, sensitive=[a], initialize=False)
                self.method(self.record, sensitive=[b], initialize=False)

            def drive(self):
                for value in (1, 2, 3, 4):
                    yield wait_time(1.0)
                    a.write(value)

            def copy(self):
                b.write(a.read())

            def watch(self):
                if a.read() == stop_at:
                    sim.stop()

            def record(self):
                log.append((sim.now, kernel.delta_count, b.read()))

        Chain(kernel)
        return sim, kernel, log

    def test_stop_defers_same_time_deltas_to_the_next_run(self):
        sim, kernel, log = self.chain(stop_at=2)
        sim.run()
        # Stopped in the delta where ``a`` became 2: ``b`` has committed
        # but its listener has not run yet.
        assert sim.now == 2.0
        assert log[-1][2] == 1
        assert sim.pending_events > 0
        sim.run()
        reference_sim, reference_kernel, reference_log = self.chain(stop_at=None)
        reference_sim.run()
        assert log == reference_log
        assert (sim.now, kernel.delta_count) == (
            reference_sim.now, reference_kernel.delta_count
        )

    def test_stop_mid_frame_resumes_to_the_uninterrupted_result(self):
        def run(stop_at):
            sim = Simulator(seed=3)
            kernel = HwKernel(sim)
            bus = BitLevelTpwireBus(sim, kernel, PhyTiming())
            for node_id in (1, 2):
                bus.attach_slave(TpwireSlave(sim, node_id, BusTiming()))
            bus.finalize()
            line = bus.slave_phys[0].down_out
            edges = []
            stopped_in = []

            class Stopper(HwModule):
                def build(self):
                    self.echo = self.signal(0, name="echo")
                    self.method(self.watch, sensitive=[line], initialize=False)
                    self.method(self.record, sensitive=[self.echo],
                                initialize=False)

                def watch(self):
                    self.echo.write(len(edges) + 1)
                    if len(edges) + 1 == stop_at:
                        sim.stop()
                        stopped_in.append(kernel.delta_count)

                def record(self):
                    edges.append((sim.now, kernel.delta_count))

            Stopper(kernel)
            master = TpwireMaster(sim, bus)
            op = master.run_op(master.op_write_bytes(2, 0x08, b"\xc3\x5a"))
            runs = 0
            while True:
                sim.run()
                runs += 1
                if stopped_in and runs == 1:
                    # No delta ran after the one that stopped the run.
                    assert kernel.delta_count == stopped_in[0]
                if not sim.pending_events:
                    break
            return runs, (
                op.value, sim.now, kernel.delta_count, bus.tx_frames,
                bus.rx_frames, bytes(bus.slaves[1].registers.memory[8:10]), edges,
            )

        stopped_runs, stopped = run(stop_at=5)
        reference_runs, reference = run(stop_at=None)
        assert (stopped_runs, reference_runs) == (2, 1)
        assert stopped == reference
