"""Smoke test of the benchmark harness's result contract.

Runs one traced pass of each ``perfbench`` workload in a fresh interpreter,
as ``perfbench/run.py --trace 1`` does, and checks that its last output line
is a JSON result with no wrong output and a finite number for every
per-layer metric. A counter that the program stops exposing (reported as
``null``) or a non-finite value would make the benchmark's result unusable.
"""
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "bounds", "mc_onebit", "mc_ideal")
SEED = 20260814
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Workloads whose operations are deterministic, so any failure is a fault.
NO_FAILURES = ("sweep", "bounds")
# Per-layer metrics that run.py derives itself, not the traced child.
DERIVED = ("trace.overhead_s",)


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _traced_pass(workload: str, work: Path) -> subprocess.CompletedProcess:
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{name: "1" for name in THREAD_VARS})
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), workload, str(SEED), "trace",
         str(work)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    base = tmp_path_factory.mktemp("perfbench")
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = pool.map(lambda w: _traced_pass(w, base / w / "work"), WORKLOADS)
        return dict(zip(WORKLOADS, done))


def _per_layer_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"] if m["name"] not in DERIVED]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_result_contract(results, workload):
    done = results[workload]
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["wrong"] == 0, result["notes"]
    if workload in NO_FAILURES:
        assert result["failed"] == 0, result["notes"]
    layers = result["layers"]
    assert set(_per_layer_names()) <= set(layers)
    for name, value in layers.items():
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
        assert math.isfinite(value), (name, value)
    if workload == "sweep":
        assert layers["steady.iterations"] == 0
        assert layers["steady.failed"] == 0
