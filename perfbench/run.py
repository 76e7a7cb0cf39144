"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload full-scan --seed 1 --seconds 16 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it give every metric with its unit, the
sample counts, and a ``# info`` JSON record of the environment (versions,
cores, pinned thread counts, seed, commit).  The exit code is 1 when any
operation failed its oracle check, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS/OpenMP threads per process; pinned before NumPy loads.
THREADS = "1"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    from perfbench.stats import THREAD_ENV_VARS

    for name in THREAD_ENV_VARS:
        os.environ[name] = THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import stats
    from perfbench.catalog import UNITS
    from perfbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    info["env"] = stats.environment(ROOT, args.seed)
    info["trace"] = args.trace
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {info['rounds']}  samples {info['samples']}")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:14.4f} {UNITS[name]}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for problem in info["problems"]:
        print(f"  FAILED: {problem}")
    print("# info " + json.dumps(info, sort_keys=True))
    result["metrics"] = {
        name: {"value": value, "unit": UNITS[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    if __package__ in (None, ""):
        sys.path.insert(0, str(ROOT))
    sys.exit(main())
