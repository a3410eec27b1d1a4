"""Pass timing corrected for the host's speed, by a calibration kernel.

On a shared host the speed a process gets changes within seconds, and by up
to 1.6x over minutes, with the load of other tenants. A ``Clock`` times a
pass in segments of about ``SEGMENT_S`` and runs a fixed calibration kernel
at each segment boundary, outside the timed segments. Each segment's time is
rescaled by the mean of the kernel times at its two ends, to the host speed
at which the kernel takes ``REFERENCE_S``; the sum is the pass time in
reference seconds. The kernel is benchmark code, not bitbounds code, so a
change to the package cannot move it. Import this module only after the
timed import of bitbounds, since it imports numpy itself.
"""

import statistics
import time

import numpy as np

# The kernel's median time on the machine the benchmark was tuned on (2 vCPUs
# of a shared x86-64 host, Python 3.11.7, numpy 2.4.6). Timed metrics are
# reported in seconds at that speed.
REFERENCE_S = 0.38
# A calibrating clock runs the kernel at the first boundary a workload
# offers after this many seconds of timed work.
SEGMENT_S = 2.0

_RNG = np.random.default_rng(0)
_SMALL = np.array([[2.0]])
_LARGE = _RNG.random((50, 1000)).astype(np.float32)


def _interpreter() -> None:
    # A scalar fixed-point iteration through a closure, like the steady
    # solver's loop.
    s, a2s = 1.0e-3, 0.999e-3

    def step(j: float) -> float:
        return 1.0e-6 + s * j / (j + a2s)

    j = s
    for _ in range(800_000):
        j = step(j)
        if abs(j) > 1e300:
            break


def _small_arrays() -> None:
    total = 0.0
    for i in range(20_000):
        total += float(np.sqrt(np.linalg.cholesky(_SMALL + i * 1e-9)[0, 0]))


def _large_arrays() -> None:
    a = _LARGE
    for _ in range(500):
        a = np.cumsum(a * 0.999, axis=1) / 1000.0 + _LARGE


def calibration_s() -> float:
    """Seconds the calibration kernel takes now.

    The kernel mixes the three kinds of work the workloads do: interpreted
    Python, numpy calls on tiny arrays, and vectorized float32 passes over
    large ones.
    """
    start = time.perf_counter()
    _interpreter()
    _small_arrays()
    _large_arrays()
    return time.perf_counter() - start


class Clock:
    """Times one pass, in segments between calibration runs when ``calibrate``."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.wall_s = 0.0  # timed work only, kernel runs excluded
        self.reference_s = 0.0
        self.kernel_s: list[float] = []
        self._start = None

    def start(self) -> None:
        if self.calibrate:
            self.kernel_s.append(calibration_s())
        self._start = time.perf_counter()

    def boundary(self, last: bool = False) -> None:
        """Close the running segment if it is long enough, or if ``last``."""
        elapsed = time.perf_counter() - self._start
        if not self.calibrate:
            if last:
                self.wall_s += elapsed
                self.reference_s += elapsed
            return
        if elapsed < SEGMENT_S and not last:
            return
        self.kernel_s.append(calibration_s())
        self.wall_s += elapsed
        self.reference_s += elapsed * REFERENCE_S / statistics.mean(self.kernel_s[-2:])
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.boundary(last=True)
