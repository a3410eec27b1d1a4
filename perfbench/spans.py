"""Layer spans for traced benchmark passes.

A traced pass rebinds the public functions listed in ``TARGETS``, in every
loaded ``bitbounds`` namespace that holds them, to wrappers that record one
span per call: name, start, end and the index of the enclosing span. The
package's files are not modified; the rebinding lives only in the child
process that runs the pass. Calls made inside the package go through module
globals, so they are traced too, and nested spans give each layer its self
time (duration minus the time covered by its child spans).

Spans stay in memory and are written out when the pass ends. Counters are
taken at the same boundaries from the values the calls return.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, public function, span name). The first component of a span name
# is the layer. ``core`` has no span: its helpers run in constant time
# inside the ``bim`` and ``steady`` spans.
TARGETS = (
    ("qfim", "expected_fim", "qfim"),
    ("qfim", "expected_fq", "qfim"),
    ("bim", "filter_bim_sequence", "bim.filter"),
    ("bim", "predict_bim", "bim.predict"),
    ("bim", "smooth_bim_compact", "bim.smooth"),
    ("bim", "smooth_bim_backward", "bim.smooth"),
    ("bim", "per_block_fims", "bim.fims"),
    ("steady", "performance_ratios", "steady.ratios"),
    ("steady", "steady_filter_bim", "steady.filter"),
    ("steady", "steady_smoothing_gain", "steady.gain"),
    ("steady", "steady_lag_gain", "steady.lag_gain"),
    ("estimators", "simulate", "estimators.simulate"),
    ("estimators", "kalman_filter", "estimators.kalman"),
    ("estimators", "rts_smoother", "estimators.rts"),
    ("estimators", "grid_filter", "estimators.grid_filter"),
    ("estimators", "grid_smoother", "estimators.grid_smoother"),
    ("estimators", "monte_carlo_mse", "estimators.mc"),
    ("cli", "main", "cli.main"),
    ("cli", "run_selftest", "cli.selftest"),
)

LAYERS = ("qfim", "steady", "bim", "estimators", "cli")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and counters for one pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self._open: list[int] = []
        self.blocks = 0
        self.cell_updates = 0
        self.pmf_bytes = 0
        self.iterations = 0
        self.iterations_absent = False

    def install(self) -> None:
        """Rebind every target in each loaded ``bitbounds`` namespace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bitbounds" or name.startswith("bitbounds.")]
        for module_name, function_name, span in TARGETS:
            home = sys.modules.get(f"bitbounds.{module_name}")
            original = getattr(home, function_name, None)
            if original is None:
                continue
            wrapped = self._wrap(span, original)
            for module in modules:
                if getattr(module, function_name, None) is original:
                    setattr(module, function_name, wrapped)

    def _wrap(self, span: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            record = [span, time.perf_counter(), None, parent, False]
            self.spans.append(record)
            self._open.append(index)
            try:
                result = function(*args, **kwargs)
            except Exception:
                record[4] = True
                raise
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            self._count(span, parent, args, result)
            return result

        return traced

    def _outermost(self, parent: int, layer: str) -> bool:
        return parent < 0 or _layer(self.spans[parent][0]) != layer

    def _count(self, span: str, parent: int, args, result) -> None:
        if span in ("bim.filter", "bim.predict", "bim.smooth"):
            self.blocks += len(result)
        elif span == "estimators.grid_filter":
            trials, blocks, points = result.pmfs.shape
            self.cell_updates += trials * (blocks - 1) * points
            self.pmf_bytes = max(self.pmf_bytes, result.pmfs.nbytes)
        elif span == "estimators.grid_smoother":
            trials, blocks = result.means.shape
            self.cell_updates += trials * (blocks - 1) * args[0].axis.size
        elif span in ("steady.ratios", "steady.filter", "steady.gain"):
            if not self._outermost(parent, "steady"):
                return
            # Solver iteration counts are read only where the result exposes
            # them; a solver without them is recorded as absent, not as 0.
            used = getattr(result, "iterations_used" if span == "steady.ratios"
                           else "iterations", None)
            if used is None:
                self.iterations_absent = True
            else:
                self.iterations += sum(used) if span == "steady.ratios" else used

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def metrics(self, pass_s: float, cache_info) -> dict:
        """Per-layer metrics of the pass; ``None`` marks a counter the program lacks."""
        own = self.self_times()

        def seconds(prefix: str) -> float:
            return sum((v for k, v in own.items() if k == prefix or k.startswith(prefix + ".")), 0.0)

        outer_steady = [s for s in self.spans
                        if _layer(s[0]) == "steady" and self._outermost(s[3], "steady")]
        points_ms = [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == "steady.ratios"]
        if len(points_ms) >= 2:
            deciles = statistics.quantiles(points_ms, n=10, method="inclusive")
            p50, p90 = statistics.median(points_ms), deciles[8]
        else:
            p50 = p90 = points_ms[0] if points_ms else 0.0
        metrics = {
            "qfim.s": seconds("qfim"),
            "qfim.misses": None if cache_info is None else cache_info.misses,
            "qfim.hits": None if cache_info is None else cache_info.hits,
            "steady.s": seconds("steady"),
            "steady.calls": len(outer_steady),
            "steady.iterations": None if self.iterations_absent else self.iterations,
            "steady.point_ms_p50": p50,
            "steady.point_ms_p90": p90,
            "steady.failed": sum(1 for s in outer_steady if s[4]),
            "bim.s": seconds("bim"),
            "bim.blocks": self.blocks,
            "bim.filter.s": seconds("bim.filter"),
            "bim.predict.s": seconds("bim.predict"),
            "bim.smooth.s": seconds("bim.smooth"),
            "estimators.s": seconds("estimators"),
            "estimators.grid_filter.s": seconds("estimators.grid_filter"),
            "estimators.grid_smoother.s": seconds("estimators.grid_smoother"),
            "estimators.grid.cell_updates": self.cell_updates,
            "estimators.grid.pmf_bytes": self.pmf_bytes,
            "estimators.simulate.s": seconds("estimators.simulate"),
            "estimators.kalman.s": seconds("estimators.kalman"),
            "estimators.rts.s": seconds("estimators.rts"),
            "cli.s": seconds("cli"),
            "cli.selftest.s": seconds("cli.selftest"),
        }
        attributed = sum(seconds(layer) for layer in LAYERS)
        metrics["trace.pass_s"] = pass_s
        metrics["trace.unattributed_s"] = pass_s - attributed
        return metrics

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as out:
            for index, (name, start, end, parent, raised) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                      "parent": parent, "raised": raised}) + "\n")
