"""Small statistics shared by the workloads."""

from __future__ import annotations

import math
import resource
import statistics
import time


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, MiB.

    Reads ``VmHWM``, which starts afresh at ``exec``; ``ru_maxrss`` also
    carries the peak of the process that spawned this one.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed normalisation ----------------------------------------------------
#
# The benchmark host may be shared.  On a 2-vCPU cloud container a short
# CPU-bound Python loop ran at one of two speeds about 2x apart, switching
# within milliseconds, and the share of time spent slow drifted from
# minute to minute: the host time of the same estimation sweep varied by
# 13-20% (interquartile range over median) between runs.  Each scenario
# run is therefore bracketed by passes of a short reference loop (two
# before, two after) and its time taken as
# ``seconds * REFERENCE_S / mean of those passes``: its time on a host
# where one reference pass takes ``REFERENCE_S``.  On the same runs this
# cut the spread to 2.5-4%.

#: Iterations of the reference loop.
CALIBRATION_ITERATIONS = 1500
#: Nominal seconds of one reference pass: about its mean on the 2-vCPU
#: x86 container the benchmark was built on, so normalised figures read
#: close to that host's raw ones.
REFERENCE_S = 0.0005


def _reference_loop() -> int:
    table = {}
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + (i % 7)
    return total


def calibrate() -> float:
    """Wall seconds of one pass of the reference loop."""
    started = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - started


def normalise(seconds: float, references) -> float:
    """``seconds`` measured between reference passes of ``references``
    seconds, expressed at the nominal host speed."""
    return seconds * REFERENCE_S / statistics.fmean(references)
