"""Estimation workloads: the paper's Table 4 sweep and Table 3 suite.

One *sweep* runs every cell of a workload once, in an order shuffled by
the seed, constructing each scenario (timed as set-up) and running it
(timed as host run time).  A run repeats whole sweeps until its seconds
are used up, so every run measures the same mix of cells.

Outputs are checked on every sweep:

* Table 4 clean-line cells equal this implementation's published values
  to the microsecond of simulated time, Out-of-Time flags included;
* Table 4 noisy-line cells (``rx_error_probability=0.01``, simulator
  seed drawn from the benchmark seed) keep the table's shape: time grows
  with CBR on each wire count, and only 1-wire at 1 B/s runs out of
  time.  They must also repeat exactly on every sweep of the run;
* Table 3 frame counts and the scaling factor equal the published ones.

The traced run profiles whole sweeps with ``cProfile`` and folds the
self time of every function into the repository layer of its module;
time spent in the standard library or built-ins is charged to the
layers that called it, in proportion to the time each caller spent in it.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import time
from dataclasses import dataclass, field
from statistics import median
from pathlib import Path

from measure import calibrate, normalise

from repro.cosim import CaseStudyConfig, CaseStudyScenario, ValidationScenario
from repro.cosim.calibration import ValidationPoint, derive_scaling_factor
from repro.obs import Observability

#: Layers the estimation pipeline's host time is folded into.
LAYERS = (
    "des", "tpwire.bus", "tpwire.slave", "tpwire.master",
    "tpwire.transport", "tpwire.other", "net", "core", "cosim", "hw",
)
_TPWIRE_SPLIT = {"bus", "slave", "master", "transport"}

#: Table 4 clean-line cells of this implementation, (wires, CBR B/s) ->
#: completion seconds (151.008, 167.32, 133.217, 144.98, 206.68), or None
#: when the take ran out of lease time.  Compared to the microsecond.
TABLE4_CLEAN = {
    (1, 0.0): 151.00752380952295, (1, 0.3): 167.3199047619111, (1, 1.0): None,
    (2, 0.0): 133.21704761905616, (2, 0.3): 144.97990476190998,
    (2, 1.0): 206.6799047618937,
}
#: The paper's finite Table 4 cells (Out-of-Time at 1-wire, 1 B/s).
TABLE4_PAPER = {
    (1, 0.0): 140.0, (1, 0.3): 151.0,
    (2, 0.0): 116.0, (2, 0.3): 122.0, (2, 1.0): 129.0,
}
NOISY_RX_ERROR = 0.01
TABLE4_MAX_SIM_S = 4000.0

#: Table 3 sizes and (bit-level, packet-level) total frame counts.
TABLE3_FRAMES = {5: (231, 232), 15: (687, 688), 30: (1380, 1382)}
TABLE3_SCALING = 0.9397


@dataclass(frozen=True)
class Cell:
    """One scenario run of a sweep."""

    key: tuple
    noisy: bool = False
    seed: int = 1


@dataclass
class CellRun:
    cell: Cell
    frames: int
    outcome: tuple
    setup_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    #: reference-loop passes around this run, seconds (see ``measure``)
    reference_s: tuple = ()


@dataclass
class SweepStats:
    """Host-side measurements of the sweeps of one run."""

    sweeps: int = 0
    wall_s: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def cells(self) -> int:
        return len(self.runs)

    @property
    def frames_per_sweep(self) -> int:
        return sum(run.frames for run in self.runs) // self.sweeps

    def sweep_s(self, attribute: str = "run_s") -> float:
        """One sweep's ``run_s``, ``cpu_s`` or ``setup_s`` at the nominal
        host speed (see ``measure``): per cell, the median over sweeps,
        summed over the cells."""
        by_cell: dict = {}
        for run in self.runs:
            value = normalise(getattr(run, attribute), run.reference_s)
            by_cell.setdefault(run.cell, []).append(value)
        return sum(median(values) for values in by_cell.values())


class EstimationWorkload:
    """Base: a list of cells, how to build and run one, and the checks."""

    name = ""

    def __init__(self, seed: int):
        self._rng = random.Random(f"{seed}:{self.name}:order")
        self.outcomes: dict = {}

    def cells(self) -> list:
        raise NotImplementedError

    def build(self, cell: Cell, obs=None):
        raise NotImplementedError

    def execute(self, scenario, cell: Cell) -> CellRun:
        raise NotImplementedError

    def check_sweep(self, runs: list) -> list:
        raise NotImplementedError

    def sim_err_pct(self) -> float:
        raise NotImplementedError

    # -- driving ---------------------------------------------------------

    def sweep(self) -> list:
        order = self.cells()
        self._rng.shuffle(order)
        runs = []
        for cell in order:
            before = (calibrate(), calibrate())
            started = time.perf_counter()
            scenario = self.build(cell)
            built = time.perf_counter()
            cpu = time.process_time()
            run = self.execute(scenario, cell)
            run.cpu_s = time.process_time() - cpu
            run.run_s = time.perf_counter() - built
            run.setup_s = built - started
            run.reference_s = (*before, calibrate(), calibrate())
            runs.append(run)
        return runs

    def check(self, runs: list) -> list:
        """Errors of one sweep: reference checks plus exact repetition."""
        errors = self.check_sweep(runs)
        for run in runs:
            known = self.outcomes.setdefault(run.cell, run.outcome)
            if known != run.outcome:
                errors.append(f"{run.cell} changed: {known} -> {run.outcome}")
        return errors

    def run_for(self, seconds: float) -> SweepStats:
        """Whole sweeps until ``seconds`` of host time have passed."""
        stats = SweepStats()
        deadline = time.perf_counter() + seconds
        while stats.sweeps == 0 or time.perf_counter() < deadline:
            started = time.perf_counter()
            runs = self.sweep()
            stats.wall_s.append(time.perf_counter() - started)
            stats.runs += runs
            stats.errors += self.check(runs)
            stats.sweeps += 1
        return stats

    def observed_sweep(self) -> tuple:
        """One sweep with ``Observability`` attached: simulated counts."""
        totals = dict.fromkeys(
            ("tpwire.tx_frames", "tpwire.rx_frames", "master.transactions",
             "master.retries", "tpwire.crc_errors", "tpwire.timeouts",
             "server.requests"), 0)
        utilization, write_s, take_s = [], [], []
        runs = []
        for cell in self.cells():
            obs = Observability()
            scenario = self.build(cell, obs)
            run = self.execute(scenario, cell)
            runs.append(run)
            system = scenario.system
            totals["tpwire.tx_frames"] += system.bus.tx_frames
            totals["tpwire.rx_frames"] += system.bus.rx_frames
            totals["tpwire.crc_errors"] += system.bus.crc_errors
            totals["tpwire.timeouts"] += system.bus.timeouts
            totals["master.transactions"] += system.master.transactions
            totals["master.retries"] += system.master.retries
            summary = obs.summary()
            totals["server.requests"] += summary["counters"].get(
                "server.requests", 0)
            gauge = summary["gauges"].get("tpwire.utilization")
            if gauge is not None:
                utilization.append(gauge["time_average"])
            for name, sink in (("client.write_seconds", write_s),
                               ("client.take_seconds", take_s)):
                hist = summary["histograms"].get(name)
                if hist is not None:
                    sink.append(hist["mean"])
        retries = totals.pop("master.retries")
        transactions = totals["master.transactions"]
        totals["master.retry_frac"] = retries / transactions if transactions else 0.0
        totals["tpwire.utilization"] = _mean(utilization)
        totals["client.write_s"] = _mean(write_s)
        totals["client.take_s"] = _mean(take_s)
        return totals, runs


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


class Table4Sweep(EstimationWorkload):
    """The six Table 4 cells on a clean line and on a noisy one."""

    name = "table4-sweep"

    def __init__(self, seed: int):
        super().__init__(seed)
        # One simulator seed per run for the noisy line, from the seed.
        self.noisy_seed = random.Random(f"{seed}:{self.name}:noise").randrange(1, 1 << 31)

    def cells(self) -> list:
        keys = [(w, cbr) for w in (1, 2) for cbr in (0.0, 0.3, 1.0)]
        return [Cell(k) for k in keys] + [
            Cell(k, noisy=True, seed=self.noisy_seed) for k in keys
        ]

    def build(self, cell: Cell, obs=None):
        wires, cbr = cell.key
        config = CaseStudyConfig(
            wires=wires, cbr_rate_bytes_per_s=cbr, seed=cell.seed,
            rx_error_probability=NOISY_RX_ERROR if cell.noisy else 0.0,
        )
        return CaseStudyScenario(config, obs=obs)

    def execute(self, scenario, cell: Cell) -> CellRun:
        result = scenario.run(max_sim_time=TABLE4_MAX_SIM_S)
        bus = scenario.system.bus
        outcome = (result.elapsed_seconds, result.out_of_time,
                   bus.tx_frames, bus.rx_frames)
        return CellRun(cell, bus.tx_frames + bus.rx_frames, outcome)

    def check_sweep(self, runs: list) -> list:
        errors = []
        noisy = {}
        for run in runs:
            elapsed, out_of_time = run.outcome[:2]
            if run.cell.noisy:
                noisy[run.cell.key] = (elapsed, out_of_time)
                continue
            expected = TABLE4_CLEAN[run.cell.key]
            if out_of_time != (expected is None):
                errors.append(f"clean {run.cell.key}: out-of-time={out_of_time}")
            elif expected is not None and round(elapsed, 6) != round(expected, 6):
                errors.append(f"clean {run.cell.key}: {elapsed!r} != {expected!r}")
        for wires in (1, 2):
            times = [noisy[(wires, cbr)][0] for cbr in (0.0, 0.3, 1.0)]
            if not times[0] < times[1] < times[2]:
                errors.append(f"noisy {wires}-wire: time not growing with CBR {times}")
        for key, (_elapsed, out_of_time) in noisy.items():
            if out_of_time != (TABLE4_CLEAN[key] is None):
                errors.append(f"noisy {key}: out-of-time={out_of_time}")
        return errors

    def sim_err_pct(self) -> float:
        """Mean |clean cell - paper| / paper over the paper's finite cells."""
        errors = [
            abs(TABLE4_CLEAN[key] - paper) / paper
            for key, paper in TABLE4_PAPER.items()
        ]
        return 100.0 * sum(errors) / len(errors)


class Table3BitLevel(EstimationWorkload):
    """The Figure 6 suite at 5, 15 and 30 packets, bit- and packet-level."""

    name = "table3-bitlevel"

    def cells(self) -> list:
        return [
            Cell((n, bit_level)) for n in TABLE3_FRAMES
            for bit_level in (True, False)
        ]

    def build(self, cell: Cell, obs=None):
        _n, bit_level = cell.key
        return ValidationScenario(bit_level=bit_level, obs=obs)

    def execute(self, scenario, cell: Cell) -> CellRun:
        result = scenario.run(cell.key[0])
        return CellRun(cell, result.total_frames, result)

    @staticmethod
    def points(results: dict) -> list:
        """Table 3 rows from ``{(packets, bit_level): ValidationResult}``."""
        return [
            ValidationPoint(n, results[(n, True)], results[(n, False)])
            for n in TABLE3_FRAMES
        ]

    def check_sweep(self, runs: list) -> list:
        errors = []
        points = self.points({run.cell.key: run.outcome for run in runs})
        for point in points:
            frames = (point.reference.total_frames, point.model.total_frames)
            if frames != TABLE3_FRAMES[point.n_packets]:
                errors.append(f"table3 {point.n_packets}: frames {frames}")
        factor = round(derive_scaling_factor(points), 4)
        if factor != TABLE3_SCALING:
            errors.append(f"table3 scaling factor {factor} != {TABLE3_SCALING}")
        return errors

    def sim_err_pct(self) -> float:
        """Mean packet-level timing error against the bit-level reference."""
        points = self.points({cell.key: out for cell, out in self.outcomes.items()})
        return 100.0 * sum(p.timing_error for p in points) / len(points)


WORKLOADS = {cls.name: cls for cls in (Table4Sweep, Table3BitLevel)}


# -- profile folding ---------------------------------------------------------


def layer_of(filename: str) -> str | None:
    """Repository layer of a source file, or None outside ``repro``."""
    parts = Path(filename).parts
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    if len(rest) < 2:
        return "other"
    package, module = rest[0], Path(rest[-1]).stem
    if package == "tpwire":
        return f"tpwire.{module}" if module in _TPWIRE_SPLIT else "tpwire.other"
    return package if package in LAYERS else "other"


def fold_profile(stats: dict) -> dict:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    A function outside the repository passes its self time up to its
    callers, split by the time it spent under each caller, until the
    time reaches repository code; time with no repository caller (the
    benchmark's own loop) lands in ``"other"``.
    """
    shares: dict = {}

    def share_of(func, active) -> dict:
        if func in shares:
            return shares[func]
        layer = layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {
                caller: timing[2] for caller, timing in callers.items()
                if caller not in active
            }
            total = sum(weights.values())
            if total <= 0.0:
                result = {"other": 1.0}
            else:
                result = {}
                active = active | {func}
                for caller, weight in weights.items():
                    for name, part in share_of(caller, active).items():
                        result[name] = result.get(name, 0.0) + part * weight / total
        shares[func] = result
        return result

    layers: dict = {}
    for func, (_cc, _nc, self_s, _ct, _callers) in stats.items():
        for name, part in share_of(func, frozenset()).items():
            layers[name] = layers.get(name, 0.0) + self_s * part
    return layers


def profiled_run(workload: EstimationWorkload, seconds: float) -> tuple:
    """Whole sweeps under ``cProfile``.

    Returns the sweep statistics, the self seconds per layer and the
    host seconds the profiled region took, which the layers must add up to.
    """
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        stats = workload.run_for(seconds)
    finally:
        profiler.disable()
    host_s = time.perf_counter() - started
    return stats, fold_profile(pstats.Stats(profiler).stats), host_s
