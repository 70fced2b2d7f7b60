"""The repository benchmark: one workload run, metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-binary-churn --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``serve-binary-churn`` and ``serve-xml-resident`` (the
serving pipeline over loopback TCP, server in a child process) and
``table4-sweep`` and ``table3-bitlevel`` (the estimation pipeline).
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics from a traced run, with
the traced-minus-untraced overhead and the reconciliation residual.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SERVING = ("serve-binary-churn", "serve-xml-resident")
ESTIMATION = ("table4-sweep", "table3-bitlevel")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SERVING + ESTIMATION)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import estimation
    import report
    import serving

    result = report.Report(report.PER_LAYER if args.trace else report.END_TO_END)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} ({mode})")
    if args.workload in SERVING:
        workload = serving.WORKLOADS[args.workload]
        measure = report.serving_traced if args.trace else report.serving_end_to_end
        measure(result, workload, args.seed, args.seconds)
    else:
        workload = estimation.WORKLOADS[args.workload](args.seed)
        measure = report.estimation_traced if args.trace else report.estimation_end_to_end
        measure(result, workload, args.seconds)
    print(json.dumps(result.finish()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
