"""hochkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload {hh,transfer,tqft} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from the root of a source checkout; hochkit is imported from ./src.
The run first builds the workload once itself, to learn how many jobs it
has and how many operations each.  A run is then a sequence of cycles.  A
cycle runs every job of the workload, each in a fresh child process
(perfbench/child.py), one at a time, so no module-level cache of hochkit
carries over between jobs or cycles.  Cycles repeat while the next one is
expected to end within --seconds; at least one runs.

Host speed drifts: on a shared 2-vCPU host the same operation ran 30%
slower minutes later, and set-up slowed with it.  Every child therefore
times a fixed calibration batch (child.py) after set-up and after each
operation, and all times of a run are scaled by one factor: CALIBRATION_S
over the mean of the run's batches, the slowest and fastest tenth left out.
An operation's time averages the host's speed over the moments it ran, and
so does a mean; a median would jump to the fast value in a run that spent
just over half its time in a fast burst, and a plain mean follows single
stalled batches.  The times below are seconds on a host where the batch
takes CALIBRATION_S.  The factor, the unscaled cycle time and the median
and mean batch are printed too.

--trace 0 prints the end-to-end metrics:
  wall_s       sum of the timed operations of one cycle (median over cycles)
  setup_s      process start to inputs ready, median over all children
  peak_rss_mb  largest child ru_maxrss (RUSAGE_SELF) of a cycle, median
  op_p50_s     median latency of one operation
It also prints, outside the JSON result, op_p90_s: the 90th percentile of
operation latency, a tail with ten operations beyond it only on transfer
(106 operations); on hh and tqft it is one long operation's time.
--trace 1 runs one untraced and one traced cycle, checks that every
operation answers identically in both, and prints the per-layer metrics.

Every operation of a job whose child crashed or overran the run's time
limit counts as failed.  Human-readable lines come first; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
The run exits 2, printing no result, when hochkit cannot be imported or
the workload's inputs cannot be built.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hh", "transfer", "tqft")
RUN_LIMIT_S = 170  # a run must end within 180 s
CALIBRATION_S = 0.020  # nominal time of child.calibration_batch()

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s"}

PER_LAYER_NAMES = """
scalars.mul.q scalars.mul.cyc scalars.add.q scalars.add.cyc
scalars.inverse.calls scalars.descent.calls
linalg.rank.calls linalg.rank.self_s linalg.rank.cells linalg.rank.nnz
linalg.cokernel.calls linalg.cokernel.self_s linalg.cokernel.cells linalg.rref.self_s
linalg.solve.calls linalg.solve.self_s linalg.nullspace.self_s
linalg.matmul.calls linalg.matmul.self_s linalg.kron.calls linalg.kron.self_s
algebra.center_basis.calls algebra.center_basis.self_s
algebra.commutator_subspace.self_s algebra.tensor.calls
modules.apply_kernel.calls modules.apply_kernel.self_s
modules.action.calls modules.action.self_s modules.hom_space.self_s
modules.descend.calls modules.descend.self_s
modules.balanced_tensor.calls modules.balanced_tensor.self_s
modules.balanced_tensor.ambient modules.balanced_tensor.quotient
modules.convolve.calls modules.convolve.self_s
modules.parallel_kernels.calls modules.parallel_kernels.self_s
hochschild.hh_dims.calls hochschild.hh_dims.self_s hochschild.assembly.self_s
hochschild.dd_check.self_s hochschild.chain_coords
mukai.pushforward.calls mukai.pushforward.self_s
mukai.adjoint_transfer.calls mukai.adjoint_transfer.self_s
mukai.chern.calls mukai.chern.self_s
mukai.cohomology_transport.calls mukai.cohomology_transport.self_s
mukai.verifiers.self_s
tqft.evaluate.calls tqft.evaluate.self_s tqft.step_kernel.self_s tqft.max_kernel_dim
cli.run.calls cli.run.self_s
trace.coverage trace.overhead
""".split()
PER_LAYER = {name: "s" if name.endswith("_s") else "1" if name.startswith("trace.")
             else "count" for name in PER_LAYER_NAMES}


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_info(args) -> str:
    return " ".join([
        f"workload={args.workload}", f"seed={args.seed}", f"seconds={args.seconds}",
        f"trace={args.trace}", f"size={args.size}", f"nproc={os.cpu_count()}",
        f"python={platform.python_version()}", f"commit={git_commit()}",
        f"src_sha256={source_digest()[:16]}",
    ])


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree; read from .git
    directly so nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hochkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def layout(args) -> list[int]:
    """The number of operations of each job of the workload."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads  # imports hochkit
        jobs = workloads.build(args.workload, args.seed, args.size)
    except ImportError as exc:
        raise Fatal(f"cannot import hochkit: {exc}") from exc
    except Exception as exc:
        raise Fatal(f"cannot build the workload: {type(exc).__name__}: {exc}") from exc
    return [len(job) for job in jobs]


def spawn(args, job: int, trace: bool, deadline: float) -> dict | None:
    """Run one child to completion; None when it crashed or overran."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--job", str(job),
           "--trace", str(int(trace))]
    started = time.monotonic()
    if started >= deadline:
        print(f"  job {job}: not started, the run's time limit has passed", file=sys.stderr)
        return None
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=deadline - started)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"  job {job}: killed at the run's time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"  job {job}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_done"] - started
    for index, op in enumerate(out["ops"]):
        op.update(job=job, index=index)
    return out


def run_cycle(args, jobs: list[int], trace: bool, deadline: float) -> list[dict]:
    """Every job of the workload once; returns its operations.  A job whose
    child crashed contributes each of its operations as failed."""
    ops = []
    for job, count in enumerate(jobs):
        child = spawn(args, job, trace, deadline)
        if child is None:
            ops += [{"job": job, "index": i, "name": f"job {job} operation {i}",
                     "seconds": 0.0, "ok": False,
                     "result": "the job crashed or overran", "child": None}
                    for i in range(count)]
        else:
            ops += [dict(op, child=child) for op in child["ops"]]
    return ops


def children_of(ops: list[dict]) -> list[dict]:
    return list({id(op["child"]): op["child"] for op in ops
                 if op["child"] is not None}.values())


def batches_of(ops: list[dict]) -> list[float]:
    return sorted(b for child in children_of(ops) for b in child["calibration_s"])


def speed_factor(ops: list[dict]) -> float:
    """CALIBRATION_S over the mean calibration batch of these operations'
    children, the slowest and fastest tenth left out: multiplying a time by
    it gives the time at nominal speed."""
    batches = batches_of(ops)
    if not batches:
        return 1.0
    cut = len(batches) // 10
    return CALIBRATION_S / statistics.mean(batches[cut:len(batches) - cut])


def measure(args, jobs: list[int], start: float) -> tuple[list[dict], dict]:
    deadline = start + RUN_LIMIT_S
    cycles = []
    while True:
        began = time.monotonic()
        cycles.append(run_cycle(args, jobs, False, deadline))
        took = time.monotonic() - began
        if time.monotonic() + took > start + args.seconds:
            break
    ops = [op for cycle in cycles for op in cycle]
    children = children_of(ops)
    factor = speed_factor(ops)
    latencies = [op["seconds"] * factor for op in ops]
    metrics = {
        "wall_s": statistics.median(sum(op["seconds"] for op in c) for c in cycles) * factor,
        "setup_s": statistics.median(ch["setup_s"] for ch in children) * factor
        if children else 0.0,
        "peak_rss_mb": statistics.median(
            max((ch["maxrss_kb"] for ch in children_of(c)), default=0) / 1024
            for c in cycles),
        "op_p50_s": statistics.median(latencies),
    }
    raw = sum(op["seconds"] for op in ops) / len(cycles)
    batches = batches_of(ops) or [0.0]
    print(f"perfbench: {len(cycles)} cycle(s), {len(children)} children, "
          f"{len(ops)} operations, unscaled seconds per cycle {raw:.3f}, "
          f"speed factor {factor:.4f}, batch median {statistics.median(batches):.6f} s "
          f"mean {statistics.mean(batches):.6f} s")
    print(f"  {'op_p90_s':40s} {percentile(latencies, 0.9):14.6g} s (not in the result)")
    return ops, metrics


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure_traced(args, jobs: list[int], start: float) -> tuple[list[dict], dict]:
    deadline = start + RUN_LIMIT_S
    plain_ops = run_cycle(args, jobs, False, deadline)
    traced_ops = run_cycle(args, jobs, True, deadline)
    plain = {(op["job"], op["index"]): op for op in plain_ops}
    for op in traced_ops:
        twin = plain[op["job"], op["index"]]
        if twin["result"] != op["result"]:
            print(f"  {op['name']}: answer changed under tracing", file=sys.stderr)
            op["ok"] = False
        op["ok"] = op["ok"] and twin["ok"]

    calls, self_s, sums, maxes, top = {}, {}, {}, {}, 0.0
    for child in children_of(traced_ops):
        tr = child["trace"]
        for total, part in ((calls, tr["calls"]), (self_s, tr["self_s"]), (sums, tr["sums"])):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v
        for k, v in tr["maxes"].items():
            maxes[k] = max(maxes.get(k, 0), v)
        top += tr["top_level_s"]

    traced_raw = sum(op["seconds"] for op in traced_ops)
    traced_wall = traced_raw * speed_factor(traced_ops)
    plain_wall = sum(op["seconds"] for op in plain_ops) * speed_factor(plain_ops)
    metrics = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in sums or name in maxes:
            metrics[name] = sums.get(name, maxes.get(name))
        elif field == "calls":
            metrics[name] = calls.get(span, 0)
        elif field == "self_s":
            metrics[name] = self_s.get(span, 0.0)
        else:
            metrics[name] = 0
    metrics["trace.coverage"] = top / traced_raw if traced_raw else 0.0
    metrics["trace.overhead"] = traced_wall / plain_wall if plain_wall else 0.0
    return traced_ops, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: every workload at its smallest size")
    args = p.parse_args(argv)
    start = time.monotonic()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hochkit" / "__init__.py").is_file():
        print(f"perfbench: no hochkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("perfbench: " + run_info(args))
    try:
        jobs = layout(args)
        ops, metrics = (measure_traced if args.trace else measure)(args, jobs, start)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for op in ops if not op["ok"])
    for op in ops:
        if not op["ok"]:
            print(f"  FAIL {op['name']}: {op['result'][:300]}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':40s} {failed / len(ops):14.6g} 1")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
