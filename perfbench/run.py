#!/usr/bin/env python3
"""Benchmark of padlab, run from the root of a source checkout.

    python3 perfbench/run.py --workload fourier_battery --seed 1 --seconds 30 --trace 0

Workloads: fourier_battery, wf_scan, densities (see README.md here).  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Progress and
per-item times go to standard error.  padlab is imported from `src/` of
the checkout and from nowhere else; without it the run fails with exit
code 2 and prints no result.
"""

import time

START = time.perf_counter()  # set-up is timed from here, before padlab is imported

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "padlab" / "__init__.py").is_file():
        print(f"padlab sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import padlab

    if not Path(padlab.__file__).resolve().is_relative_to(SRC):
        print(f"padlab was imported from {padlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.trace:
        result = harness.trace(args.workload, args.seed)
    else:
        result = harness.measure(args.workload, args.seed, args.seconds, START)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
