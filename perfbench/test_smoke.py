"""Smoke test of the benchmark itself: every workload at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the library's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

# per-layer metrics that must be nonzero (by name prefix) on each workload,
# and those that must stay zero there
NONZERO = {
    "hh": ("scalars.mul.q", "linalg.rank.", "algebra.commutator_subspace", "hochschild."),
    "transfer": ("scalars.mul.cyc", "scalars.add.cyc", "scalars.descent", "linalg.solve",
                 "algebra.center_basis", "modules.apply_kernel", "modules.action",
                 "modules.descend", "mukai.", "cli."),
    "tqft": ("linalg.cokernel", "linalg.kron", "modules.balanced_tensor", "modules.convolve",
             "modules.parallel_kernels", "tqft."),
}
ZERO = {
    "hh": ("scalars.mul.cyc", "scalars.add.cyc", "scalars.descent", "mukai.", "tqft.", "cli."),
    "transfer": ("hochschild.", "tqft."),
    "tqft": ("scalars.mul.cyc", "scalars.add.cyc", "scalars.descent", "hochschild.",
             "mukai.", "cli."),
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout  # fail_ratio == 0
    return result


def declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    metrics = {k: m["value"] for k, m in result_of(bench(workload, 1))["metrics"].items()}
    assert set(metrics) == set(PER_LAYER) == declared("per_layer")
    assert metrics["trace.coverage"] >= 0.9
    for name, value in metrics.items():
        if name.startswith(NONZERO[workload]):
            assert value > 0, name
        if name.startswith(ZERO[workload]):
            assert value == 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    metrics = result_of(bench(workload, 0))["metrics"]
    assert set(metrics) == set(END_TO_END) == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("hh", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def fake_spawn(crashed: set[tuple[bool, int]]):
    """A stand-in for run.spawn: job j answers "j.i" for each of its
    operations, except the (trace, job) pairs in `crashed`."""
    def spawn(args, job, trace, deadline):
        if (trace, job) in crashed:
            return None
        ops = [{"name": f"op {job}.{i}", "seconds": 1.0, "ok": True,
                "result": f"{job}.{i}", "job": job, "index": i} for i in range(job + 1)]
        trace_out = {"calls": {}, "self_s": {}, "sums": {}, "maxes": {}, "top_level_s": 1.0}
        return {"ops": ops, "setup_s": 0.1, "calibration_s": [0.015] * (job + 2),
                "maxrss_kb": 1024, "trace": trace_out}
    return spawn


def test_crashed_job_fails_each_of_its_operations(monkeypatch):
    import run
    monkeypatch.setattr(run, "spawn", fake_spawn({(False, 1)}))
    ops = run.run_cycle(None, [1, 2, 3], False, 0.0)
    assert [(op["job"], op["index"], op["ok"]) for op in ops] == [
        (0, 0, True), (1, 0, False), (1, 1, False), (2, 0, True), (2, 1, True), (2, 2, True)]


def test_traced_answers_pair_by_job_and_index(monkeypatch):
    import run
    monkeypatch.setattr(run, "spawn", fake_spawn({(True, 0)}))
    ops, _ = run.measure_traced(None, [1, 2, 3], 0.0)
    assert [op["ok"] for op in ops] == [False, True, True, True, True, True]
