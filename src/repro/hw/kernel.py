"""Delta-cycle kernel with SystemC evaluate/update semantics.

The kernel piggybacks on a :class:`repro.des.Simulator`.  Within one
delta step:

1. *evaluate* — every runnable process runs once (method processes are
   called; thread processes resume until their next ``yield``);
2. *update* — signals written during evaluation commit their new values;
   value changes notify sensitive processes, which become runnable in the
   *next* delta step.

Steps repeat at the same timestamp until no process is runnable and no
update is pending, then simulated time advances — exactly SystemC's
scheduler contract, which is what makes the bit-level TpWIRE PHY race-free.

Delta steps run inline.  A delta is the only negative-priority heap entry
and at most one is pending, so a delta scheduled from inside an event is
always the very next pop; the callbacks the kernel owns (timed wake-ups
and :meth:`HwKernel.call_after` signal writes) therefore drain their
deltas before returning, in the same order, without a heap event per
step.  Triggers from outside the kernel (a DES process writing a signal)
schedule one delta event, which drains the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.signal import Signal


class HwKernel:
    """Evaluate/update scheduler layered on the event kernel."""

    #: Heap priority of a scheduled delta.  Lower pops first, so the delta
    #: runs before every other event at its timestamp; it is the only
    #: negative priority in the simulator, which inline draining relies on.
    DELTA_PRIORITY = -10

    def __init__(self, sim):
        self.sim = sim
        self._runnable: list = []
        self._pending_updates: list["Signal"] = []
        #: A drain is due: a delta event is queued or a drain is running.
        self._delta_scheduled = False
        self.delta_count = 0
        self.processes: list = []

    # -- registration ------------------------------------------------------

    def register_process(self, process) -> None:
        self.processes.append(process)

    def make_runnable(self, process) -> None:
        """Queue a process for the next evaluate phase."""
        if process._queued:
            return
        process._queued = True
        self._runnable.append(process)
        if not self._delta_scheduled:
            self._schedule_delta()

    def request_update(self, signal: "Signal") -> None:
        """Queue a signal for the next update phase (once per pending write)."""
        self._pending_updates.append(signal)
        if not self._delta_scheduled:
            self._schedule_delta()

    def notify_after(self, delay: float, process) -> None:
        """Resume a process after a timed wait."""
        self.sim.call_after(delay, self._wake, process)

    def call_after(self, delay: float, fn: Callable[[Any], None], arg) -> None:
        """Schedule ``fn(arg)`` as a kernel callback whose deltas run inline."""
        self.sim.call_after(delay, self._fire, fn, arg)

    # -- delta machinery -----------------------------------------------------

    def _wake(self, process) -> None:
        # ``_fire(self.make_runnable, process)`` inlined: timed wake-ups
        # are the kernel's most frequent event.
        self._delta_scheduled = True
        if not process._queued:
            process._queued = True
            self._runnable.append(process)
        self._drain()

    def _fire(self, fn: Callable[[Any], None], arg) -> None:
        # No delta is pending when a timed event fires (it would have
        # popped first), so claim the flag: work queued by ``fn`` waits
        # for the drain below instead of scheduling a delta event.
        self._delta_scheduled = True
        fn(arg)
        self._drain()

    def _schedule_delta(self) -> None:
        self._delta_scheduled = True
        sim = self.sim
        sim.call_at(sim.now, self._drain, priority=self.DELTA_PRIORITY)

    def _drain(self) -> None:
        """Run delta steps until no process is runnable and no update pends.

        When a step stops the simulator, the rest is left to the next
        ``run()`` as a scheduled delta, as a heap-driven delta chain would.
        """
        sim = self.sim
        try:
            while self._runnable or self._pending_updates:
                # Simulator has no public stop query.  ``_running`` keeps
                # settle() and step() outside run() from deferring forever.
                if sim._stopped and sim._running:
                    self._schedule_delta()
                    return
                self.delta_count += 1
                # Evaluate phase.
                runnable = self._runnable
                if runnable:
                    self._runnable = []
                    for process in runnable:
                        process._queued = False
                    for process in runnable:
                        process.run()
                # Update phase.
                updates = self._pending_updates
                if updates:
                    self._pending_updates = []
                    for signal in updates:
                        signal.apply_update()
        except BaseException:
            self._delta_scheduled = False
            if self._runnable or self._pending_updates:
                self._schedule_delta()
            raise
        self._delta_scheduled = False

    def settle(self) -> None:
        """Run all deltas pending at the current time (for tests)."""
        self._drain()
