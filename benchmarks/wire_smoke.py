"""CI smoke gate: the asyncio wire path holds up under concurrency.

Runs the mixed wire workload of :mod:`benchmarks.wire_workloads` at
smoke scale for both body codecs and fails when

* any operation is lost, errors, or leaves residue in the space,
* the front end trips a protocol error or slow-consumer close, or
* the binary codec's throughput advantage over XML falls below the
  gate floor (about 2x on a quiet host; the CI floor is looser because
  shared runners are noisy).

Every client holds one loopback TCP connection, two file descriptors;
the default 1000 clients need an open-file limit above 2000.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.wire_smoke --fast
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.wire_workloads import (
    SMOKE_CLIENTS,
    SMOKE_OPS_PER_CLIENT,
    format_rows,
    run_wire_workload,
)

#: CI floor for the binary/XML throughput ratio (about 2x on a quiet host).
SPEEDUP_FLOOR = 1.3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help=f"smoke scale ({SMOKE_CLIENTS} clients) instead of 1000",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=None,
        help="override the concurrent client count",
    )
    args = parser.parse_args(argv)
    clients = args.clients or (SMOKE_CLIENTS if args.fast else 1000)

    rows = []
    failures = 0
    for codec in ("xml", "binary"):
        row = run_wire_workload(
            codec, clients=clients, rounds=SMOKE_OPS_PER_CLIENT
        )
        rows.append(row)
        broken = []
        if row["protocol_errors"]:
            broken.append(f"protocol_errors={row['protocol_errors']}")
        if row["slow_consumer_closes"]:
            broken.append(f"slow_consumer_closes={row['slow_consumer_closes']}")
        if row["space_leftover"]:
            broken.append(f"space_leftover={row['space_leftover']}")
        if codec == "binary" and row["negotiated_binary"] != clients:
            broken.append(
                f"negotiated_binary={row['negotiated_binary']} != {clients}"
            )
        if broken:
            failures += 1
            print(f"{codec}: FAILED ({', '.join(broken)})")

    print(format_rows(rows))
    speedup = rows[1]["ops_per_second"] / rows[0]["ops_per_second"]
    verdict = "ok" if speedup >= SPEEDUP_FLOOR else "FAILED"
    print(
        f"binary vs xml speedup: {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x) {verdict}"
    )
    if speedup < SPEEDUP_FLOOR:
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
