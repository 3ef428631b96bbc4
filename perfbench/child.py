"""One measured process: set up a workload, run one of its jobs, report.

    python3 perfbench/child.py --workload hh --seed 0 --size full --job 0 --trace 0

Set-up (import hochkit, build fixtures, simples and the seeded inputs of
the whole workload) ends at the `setup_done` timestamp, a time.monotonic()
value the parent compares with its own clock.  Then each operation is
timed alone and checked after all of them ran.  A calibration batch of
fixed pure-Python work is timed after set-up and after each operation; the
parent turns the batches of a whole run into one speed factor (run.py).
With --trace 1 the layer wrappers are installed after set-up and record
only while an operation runs.  The last line of stdout is one JSON object;
any other exit is a crash of the job.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from fractions import Fraction


def calibration_batch() -> float:
    """Time of a fixed batch of the work hochkit's inner loops do: exact
    Gaussian elimination of a fixed sparse 40 x 40 matrix over Q with dict
    rows.  It calls no hochkit code, and it runs with the cyclic garbage
    collector off, so the objects an operation left alive are never walked
    and do not change its time."""
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(7)
        n = 40
        rows = [{j: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for j in rng.sample(range(n), 6)} for _ in range(n)]
        rows = [{j: v for j, v in row.items() if v} for row in rows]
        for col in range(n):
            pivot = next((row for row in rows if row.get(col)), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            inverse = 1 / pivot[col]
            for row in rows:
                f = row.get(col)
                if f:
                    f *= inverse
                    for j, v in pivot.items():
                        x = row.get(j, 0) - f * v
                        if x:
                            row[j] = x
                        else:
                            row.pop(j, None)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--job", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    import tracer
    import workloads  # imports hochkit

    jobs = workloads.build(args.workload, args.seed, args.size)
    setup_done = time.monotonic()
    ops = jobs[args.job]

    t = tracer.install() if args.trace else None
    calibration = [calibration_batch()]
    outcomes = []
    for op in ops:
        if t is not None:
            t.active = True
        start = time.perf_counter()
        try:
            value, error = op.run(), None
        except Exception as exc:  # an operation that raises is a failure, not a crash
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if t is not None:
            t.active = False
        outcomes.append((op, value, error, seconds))
        calibration.append(calibration_batch())

    records = []
    for op, value, error, seconds in outcomes:
        if error is None:
            try:
                ok, text = op.check(value)
            except Exception as exc:  # a malformed answer fails its check
                ok, text = False, f"unreadable answer: {type(exc).__name__}: {exc}"
        else:
            ok, text = False, error
        records.append({"name": op.name, "seconds": seconds, "ok": ok, "result": text})

    print(json.dumps({
        "setup_done": setup_done,
        "calibration_s": calibration,
        "ops": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": t.snapshot() if t is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
