"""Print every metric of every workload by name, with its unit.

    python3 perfbench/report.py [--seed N] [--trace]

Runs perfbench/run.py once per workload for the run_seconds of
BENCHMARK.json (and once more traced with --trace) and prints its metric
lines: every metric with its unit, op_p90_s, and fail_ratio (operations
that were wrong or raised / operations attempted).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="also print the per-layer metrics")
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
                status = 1
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            print(f"# {workload}, trace {trace}: {lines[0]}")
            # run.py's metric lines: every metric with its unit, then fail_ratio
            for line in lines[1:-1]:
                if line.startswith("  "):
                    print(f"{workload:9s}{line}")
            status |= result["failed"] != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
