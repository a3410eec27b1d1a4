"""Run one benchmark pass in this fresh interpreter and print its result as JSON.

Usage: ``python3 perfbench/child.py <workload> <seed> <import|pass|trace> <work dir>``

``import`` only times ``import bitbounds``; ``pass`` also runs one pass;
``trace`` runs one pass with layer spans. ``run.py`` starts this script with
``PYTHONPATH`` set to the checkout's ``src`` and BLAS threads pinned to 1.

``import`` and ``pass`` also time the calibration kernel of
``calibrate.py``: ``import`` once after the import, ``pass`` at the start
and end of the pass and between its segments.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed, mode, work = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    start = time.perf_counter()
    import bitbounds
    import bitbounds.cli
    result = {"import_s": time.perf_counter() - start}
    expected = (ROOT / "src" / "bitbounds").resolve()
    if Path(bitbounds.__file__).resolve().parent != expected:
        print(f"error: imported bitbounds from {bitbounds.__file__}, not {expected}",
              file=sys.stderr)
        return 1
    if mode == "import":
        from calibrate import calibration_s

        result["kernel_s"] = [calibration_s()]
    elif mode == "pass":
        import workloads
        from calibrate import Clock

        result.update(workloads.PASSES[workload](seed, work, Clock(calibrate=True)))
    elif mode == "trace":
        import spans
        import workloads
        from calibrate import Clock

        tracer = spans.Tracer()
        tracer.install()
        result.update(workloads.PASSES[workload](seed, work, Clock(calibrate=False)))
        cached = getattr(sys.modules["bitbounds.qfim"], "_expected_fq_cached", None)
        cache_info = cached.cache_info() if hasattr(cached, "cache_info") else None
        result["layers"] = tracer.metrics(result["wall_s"], cache_info)
        tracer.dump(work / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
