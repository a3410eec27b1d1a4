"""bitbounds benchmark: time one workload end to end, or trace it layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: ``sweep``, ``bounds``, ``mc_onebit``, ``mc_ideal`` (see README.md).
Every pass and every set-up sample runs in a fresh child interpreter, with
``PYTHONPATH`` pointing at this checkout's ``src`` and BLAS/OpenMP pinned to
one thread. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines
before it describe the environment, every pass and every failed operation.
End-to-end times are in reference seconds, rescaled by the calibration kernel
of ``calibrate.py`` to take the shared host's changing speed out of them;
per-layer times are raw.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# Minimum passes per run: the Monte Carlo workloads compare the MseReport
# of two passes for bit-identity.
MIN_PASSES = {"sweep": 1, "bounds": 1, "mc_onebit": 2, "mc_ideal": 2}
# Fresh-interpreter imports that set-up time is the median of, at least:
# the passes' own imports count, and import-only children make up the rest.
SETUP_SAMPLES = 5
# Counters that must repeat exactly across passes of one commit.
REPEATING = ("steady.iterations", "bim.blocks", "qfim.misses", "estimators.grid.cell_updates")
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"setup_s": "s", "pass_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB",
         "ok_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def environment(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.exists():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"git_sha": sha, "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "cpus": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


class Runner:
    """Starts child passes under one deadline, in one scratch directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.monotonic() + DEADLINE_S
        self.children = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        **{name: "1" for name in THREAD_VARS})

    def child(self, mode: str) -> dict:
        self.children += 1
        pass_dir = self.work / f"pass{self.children}"
        pass_dir.mkdir()
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a pass could start")
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed), mode,
                 str(pass_dir)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child did not finish within the deadline") from exc
        if done.returncode != 0:
            raise BenchError(f"{mode} child exited with {done.returncode}:\n{done.stderr}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def count_failures(passes: list[dict]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, wrong, notes) over passes, plus the bit-identity check."""
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    notes = sorted({note for p in passes for note in p["notes"]})
    digests = [p["digest"] for p in passes if "digest" in p]
    if digests:
        attempted += 1
        if None in digests or len(set(digests)) != 1:
            failed += 1
            wrong += 1
            notes.append(f"MseReport differs across passes with one seed: {digests}")
    return attempted, failed, wrong, notes


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, list[dict]]:
    runner.child("import")  # untimed: warms the file cache (and bytecode, where written)
    passes, costs = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(runner.child("pass"))
        costs.append(time.monotonic() - began)
        # Start another pass only if one more like the median so far still
        # ends within the run, so that a run lasts --seconds, not up to a
        # pass longer.
        if (len(passes) >= MIN_PASSES[runner.workload]
                and time.monotonic() - start + statistics.median(costs) > seconds):
            break
    setups = [runner.child("import") for _ in range(SETUP_SAMPLES - len(passes))]
    # Times in reference seconds (see calibrate.py): a pass as its clock
    # rescaled it, an import by the calibration run that followed it.
    imports = [c["import_s"] * REFERENCE_S / c["kernel_s"][0] for c in setups + passes]
    wall = statistics.median(p["reference_s"] for p in passes)
    attempted, failed, _, _ = count_failures(passes)
    kernels = [k for c in setups + passes for k in c["kernel_s"]]
    print(f"# calibration kernel: {len(kernels)} runs, median {statistics.median(kernels):.4f} s, "
          f"range {min(kernels):.4f}-{max(kernels):.4f} s; reference {REFERENCE_S} s")
    print(f"# measured: import median {statistics.median(c['import_s'] for c in setups + passes):.4f} s "
          f"over {len(setups + passes)} children, pass median "
          f"{statistics.median(p['wall_s'] for p in passes):.4f} s over {len(passes)} passes")
    metrics = {
        "setup_s": statistics.median(imports),
        "pass_s": wall,
        "items_per_s": passes[0]["items"] / wall,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_ratio": 1.0 - failed / attempted,
    }
    return {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}, passes


def per_layer(runner: Runner) -> tuple[dict, list[dict]]:
    # Traced, untraced, traced: the untraced pass sits between the two it is
    # compared with, so slow drift of the machine cancels in the overhead.
    passes = [runner.child("trace")]
    untraced = runner.child("pass")
    passes.append(runner.child("trace"))
    layers = [p["layers"] for p in passes]
    metrics = {}
    for name, first in layers[0].items():
        values = [layer[name] for layer in layers]
        if name in REPEATING and len(set(values)) != 1:
            print(f"# FLAG: counter {name} does not repeat across passes: {values}")
        if first is None:
            print(f"# {name}: absent (the program does not expose this counter)")
            metrics[name] = None
        elif isinstance(first, int):
            metrics[name] = first
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced["wall_s"]
    pass_s = metrics["trace.pass_s"]
    print(f"# traced pass {pass_s:.4f} s, untraced pass {untraced['wall_s']:.4f} s, "
          f"tracing overhead {metrics['trace.overhead_s']:+.4f} s")
    for layer in ("qfim", "steady", "bim", "estimators", "cli"):
        share = metrics[f"{layer}.s"] / pass_s
        print(f"# layer {layer:<11} self {metrics[f'{layer}.s']:10.4f} s  share {share:7.2%}")
    print(f"# unattributed (benchmark glue) {metrics['trace.unattributed_s']:.4f} s; "
          "estimators.grid.pmf_bytes is computed from array sizes")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}, \
        [untraced] + passes


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "bitbounds" / "__init__.py").is_file():
        print(f"error: no bitbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"error: --seed must fit in 64 bits, got {args.seed}", file=sys.stderr)
        return 2
    print("# env: " + json.dumps(environment(args)))
    # A traced run keeps its spans (passN/spans.jsonl) until the next traced
    # run of the same workload; an untraced run leaves nothing behind.
    work = WORK / (f"trace-{args.workload}" if args.trace else f"run{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work)
    try:
        if args.trace:
            metrics, passes = per_layer(runner)
            print(f"# spans written under {work}")
        else:
            metrics, passes = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if not args.trace:
            shutil.rmtree(work, ignore_errors=True)
    attempted, failed, wrong, notes = count_failures(passes)
    for i, p in enumerate(passes, 1):
        kernels = len(p.get("kernel_s", []))
        print(f"# pass {i}: wall {p['wall_s']:.4f} s, reference {p['reference_s']:.4f} s "
              f"({kernels} calibration runs), "
              f"peak rss {p['rss_mb']:.1f} MiB, import {p['import_s']:.4f} s, ops {p['ops']}, "
              f"failed {p['failed']}, wrong {p['wrong']}")
    for note in notes:
        print(f"# failed: {note}")
    for name, metric in metrics.items():
        print(f"# {name:<30} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
