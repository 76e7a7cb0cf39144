"""Steadiness mode: repeat workloads with different seeds and summarize.

    python3 perfbench/steady.py --workloads all --seeds 1-10 --seconds 16 \
        --out perfbench/baseline.json

Each run is a fresh ``run.py`` process.  For every workload and metric this
prints the median, quartiles, extremes and the spread (interquartile range
over the median) next to the metric's bound from ``BENCHMARK.json``; a
spread above a third of its bound is flagged.  This is the evidence behind
the bounds, and ``--out`` writes it as the committed baseline.  Exits 1 when
any run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
#: A run may take this long before it counts as hung.
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> "list[int]":
    """``"1-10"`` or ``"3,5,8"`` (or a mix) to a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} seed {seed}: exit {completed.returncode}, no result\n{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    info = next((json.loads(line[7:]) for line in lines if line.startswith("# info ")), {})
    result["exit_code"] = completed.returncode
    result["info"] = info
    return result


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import summarize

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {metric["name"]: metric.get("bound") for metric in declared}
    seeds = parse_seeds(args.seeds)

    report = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    bad = 0
    for name in names:
        runs = []
        for seed in seeds:
            result = run_once(name, seed, seconds, args.trace)
            bad += result["exit_code"] != 0 or not result["correct"]
            runs.append(result)
            print(f"{name} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  f"ref_kernel {result['info'].get('ref_kernel_ms', float('nan')):.2f} ms", flush=True)
        summary = {
            metric: summarize([run["metrics"][metric]["value"] for run in runs])
            for metric in bounds
        }
        summary["bench.ref_kernel_ms"] = summarize([run["info"]["ref_kernel_ms"] for run in runs])
        report["workloads"][name] = {
            "summary": summary,
            "runs": [
                {
                    "seed": seed,
                    "attempted": run["attempted"],
                    "failed": run["failed"],
                    "metrics": {metric: value["value"] for metric, value in run["metrics"].items()},
                    "samples": run["info"].get("samples"),
                    "ref_kernel_ms": run["info"].get("ref_kernel_ms"),
                    "raw": run["info"].get("raw"),
                    "setup_ref_kernel_ms": run["info"].get("setup_ref_kernel_ms"),
                }
                for seed, run in zip(seeds, runs)
            ],
        }
        print(f"\n{name}  ({len(runs)} runs, {seconds} s each)")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} {'max':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for metric, row in summary.items():
            bound = bounds.get(metric)
            flag = " <-- above bound/3" if bound and row["spread"] > bound / 3 else ""
            print(f"  {metric:34s} {row['median']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f} "
                  f"{row['min']:12.4f} {row['max']:12.4f} {row['spread']:7.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        print(flush=True)
    report["env"] = runs[-1]["info"].get("env") if names else None
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
