"""End-to-end benchmark: packet sweep, Remy training, fluid sweep.

Usage, from the repository root::

    python3 e2e_bench/run.py --workload sweep_packet --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` repeats the workload on a 2-worker supervised pool,
untraced, for ``--seconds`` seconds and prints every end-to-end metric.
``--trace 1`` runs it once pooled, once in-process untraced and once
in-process traced, and prints the per-layer metrics plus the tracing
overhead.  Either way the correctness gate runs, a human-readable
report goes to stdout, and the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when the gate fails and 2 when the repository
sources it benchmarks are missing.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARKS = os.path.join(ROOT, "benchmarks")
WORKLOAD_NAMES = ("sweep_packet", "train_remy", "sweep_fluid")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the sweep and training "
                    "entry points.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in (os.path.join(SRC, "repro"),
                                 os.path.join(BENCHMARKS,
                                              "kernel_workloads.py"))
               if not os.path.exists(path)]
    if missing:
        print(f"e2e_bench: repository sources missing: {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCHMARKS, HERE]
    import e2e_runner

    return e2e_runner.main(ROOT, args.workload, args.seed, args.seconds,
                           bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
