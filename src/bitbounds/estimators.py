"""Reference Bayesian estimators and the Monte Carlo bound-validation harness.

The bounds computed by the information recursions are only evidence if an
estimator can be shown to respect (and, where theory says so, attain) them.
This module provides:

* an exact Kalman filter and Rauch-Tung-Striebel smoother for the
  unquantized channel, where the conditional mean is available in closed
  form and attains the bounds; one backward path serves every lag;
* a grid (point-mass) filter and fixed-interval smoother, the one-bit
  receiver, that approximate the conditional mean where no closed form
  exists. They read the sign of each unquantized observation, as a 1-bit
  converter would. The banded transition operator and its
  adjoint are stored as dense row tiles, each over only the columns its
  rows touch and filled from its own band entries, and applied with one
  BLAS matrix product per tile; neither the n x n matrix nor a list of all
  band entries is formed. The one-bit likelihood is one product of the two-column table with a
  selector that each block builds from its observations' signs. Each
  block's posterior totals, means and variances come from one more
  product, of ``[1; x; x^2]`` with the unnormalised posterior. The grid
  computes in float32 except for that moment product, which accumulates
  in float64 because ``m2 / total - mean^2`` cancels. After each write,
  entries below 2^-50 of their trial's total are set to 0, so no float32
  subnormal reaches a product; means and variances stay within 1e-5
  relative of a float64 loop that never flushes (the tests' oracle). The
  smoother keeps no posterior per block: the filter checkpoints every
  ``c``-th posterior, ``c = ceil(sqrt(K + 1))``, and the smoother replays
  one segment of ``c`` blocks at a time from its checkpoint, bit for bit:
  the filter and the replay run one forward loop;
* a seeded trajectory simulator, whose one unquantized batch every
  receiver reads, and a Monte Carlo harness that compares empirical MSE
  per block against the matching bound values. The simulator runs the
  state recursion as a numpy loop over blocks, bit-identical to
  ``scipy.signal.lfilter`` (the tests' oracle) without importing it.

Randomness contract: one ``default_rng(seed)`` draws the whole batch as one
standard-normal stream, block-major: first ``num_trials`` values for the
``theta_0`` draws, then for each block ``k = 1..K`` ``num_trials`` state
noises ``z_k`` followed by ``num_trials`` measurement noises ``eta_k``. Each
row is drawn by a call of its own; calls on one generator draw the values
of one call, so the stream is that of a single vector of length
``num_trials * (2 * horizon + 1)``. Batches are therefore bit-reproducible
from ``seed`` and the trial count, and every reduction below runs in fixed
trial order so repeated runs agree to the last bit. A batch at horizon
``K`` is the first ``K`` blocks of any longer batch with the same seed and
trial count; trial ``i``'s path, though, depends on the trial count.

One layout serves every estimator. A :class:`TrajectoryBatch` is stored
block-major: its ``(trials, K + 1)`` arrays are Fortran-ordered, so block
``k`` of all trials is one contiguous row of ``states.T``. The simulator and
all four estimators run over those rows without copying them, and write
their means (and the grid's variances) one row per block into block-major
buffers, returned as ``(trials, K + 1)`` views.

On the Kalman path :func:`monte_carlo_mse` holds no whole array: it draws,
filters and lag-smooths the batch in windows of ``C + lag + 1`` block rows,
``C = max(lag, 64)``, and reduces each block's rows as they become final,
so its memory does not grow with the horizon. It draws with the row source
of :func:`simulate` and smooths with :func:`rts_smoother`, so the filtered
means are bit for bit those of the whole batch and the smoothed means move
by rounding only. The grid path keeps its whole batch, which its trial
sub-batches read, and feeds the rows of its means through the same
statistics. On both paths the buffers of the means take the squared errors
in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bim import filtered_information, per_block_fims, smoothing_gain
from .core import (
    GaussMarkovModel,
    MeasurementChannel,
    _gain_coefficients,
    _gain_step,
    _integer,
    state_moments,
)
from .exceptions import NumericalDegeneracyError
from .qfim import DEFAULT_QUADRATURE, QuadratureSpec, q_function
from .steady import quadratic_filter_root, quadratic_gain_root, steady_expected_fim, steady_lag_gain

__all__ = [
    "TrajectoryBatch",
    "GridSpec",
    "KalmanResult",
    "RtsResult",
    "GridFilterResult",
    "GridSmootherResult",
    "MseReport",
    "burn_in_blocks",
    "simulate",
    "kalman_filter",
    "rts_smoother",
    "kalman_steady_variance",
    "rts_steady_variance",
    "grid_filter",
    "grid_smoother",
    "monte_carlo_mse",
]


@dataclass(frozen=True)
class TrajectoryBatch:
    """Simulated state trajectories with the unquantized measurements every receiver reads.

    Both arrays are stored block-major, Fortran-ordered (a copy is made
    where the input is not), so ``states[:, k]`` is contiguous: the
    estimators run over blocks, and downstream sums follow memory order.

    Parameters
    ----------
    states : ndarray, shape (num_trials, horizon + 1)
        ``states[:, k]`` is ``theta_k``; at least one trial and one
        measured block.
    observations : ndarray, shape (num_trials, horizon)
        ``observations[:, k - 1]`` is ``y_k = theta_k + eta_k``; finite.
    """

    states: np.ndarray
    observations: np.ndarray

    def __post_init__(self):
        states = np.asfortranarray(self.states, dtype=float)
        observations = np.asfortranarray(self.observations, dtype=float)
        if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] < 2:
            raise ValueError(f"states must have shape (num_trials, horizon + 1) with "
                             f"num_trials >= 1 and horizon >= 1, got {states.shape}.")
        expected = (states.shape[0], states.shape[1] - 1)
        if observations.shape != expected:
            raise ValueError(f"observations must have shape {expected}, got {observations.shape}.")
        if not np.isfinite(observations).all():
            raise ValueError("observations must be finite.")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observations", observations)

    @property
    def num_trials(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        """Number of measured blocks K."""
        return self.observations.shape[1]


@dataclass(frozen=True)
class GridSpec:
    """Uniform point-mass grid for the nonlinear filter.

    The grid is centered at 0 and spans ``half_width`` times the largest
    marginal state standard deviation over the horizon, widened by the
    prior mean offset.
    """

    num_points: int = 1000
    half_width: float = 8.0

    def __post_init__(self):
        object.__setattr__(self, "num_points", _integer("num_points", self.num_points, 64, 100_000))
        if not 2.0 <= self.half_width <= 32.0:
            raise ValueError(f"half_width must be in [2, 32], got {self.half_width}.")


@dataclass(frozen=True)
class KalmanResult:
    """Kalman filter output: per-trial means, shared analytic variances.

    ``means`` is a ``(trials, K + 1)`` view of a block-major array and
    ``variances[k]`` is ``P_{k|k}``; :func:`rts_smoother` forms the prior
    variances ``alpha^2 P_{k|k} + sigma_z^2`` from them and the model.
    """

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        if self.means.ndim != 2 or self.variances.shape != (self.means.shape[1],):
            raise ValueError("means must be (trials, K+1) with matching variances.")

    @property
    def horizon(self) -> int:
        return self.means.shape[1] - 1


@dataclass(frozen=True)
class RtsResult:
    """Smoothed means and analytic variances.

    Entry ``l`` of both arrays refers to state block ``l``; a lag-``delta``
    result ends at block ``K - delta``.
    """

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        if self.means.ndim != 2 or self.variances.shape != (self.means.shape[1],):
            raise ValueError("means must be (trials, L) with matching variances.")


@dataclass(frozen=True)
class GridFilterResult:
    """Grid filter output, with the checkpoints the smoother replays from.

    Means and variances are per trial, shape ``(trials, K + 1)``, because
    the one-bit posterior spread is data-dependent; both are transposed
    views of block-major ``(K + 1, trials)`` arrays. ``pmfs[t, j]`` is the
    unnormalised filtering posterior of trial ``t`` at block ``j * c``,
    every ``c``-th block with ``c = ceil(sqrt(K + 1))``, on ``axis``: shape
    ``(trials, K // c + 1, n)``, float32 as the filter computes it, a
    transposed view of a block-major ``(K // c + 1, n, trials)`` array.
    ``totals[k, t]`` (float64, shape ``(K + 1, trials)``) is the mass of
    trial ``t``'s posterior at block ``k`` before normalisation; block 0 is
    normalised, with total 1. Divided by its total, a checkpoint is the
    normalised posterior; its entries below ``2^-50`` times the total are 0
    (so none is subnormal). The smoother recomputes the blocks between
    checkpoints from them, the totals and the observations. ``operators``
    holds the tiled transition operator and the likelihood table, which the
    smoother reuses.
    """

    axis: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    pmfs: np.ndarray
    totals: np.ndarray
    batch: TrajectoryBatch
    operators: _GridOperators = field(repr=False)

    @property
    def horizon(self) -> int:
        return self.means.shape[1] - 1


@dataclass(frozen=True)
class GridSmootherResult:
    """Fixed-interval grid smoother output; block ``l`` uses all measurements.

    Means and variances are ``(trials, K + 1)`` views of block-major arrays,
    as the filter's are.
    """

    means: np.ndarray
    variances: np.ndarray


@dataclass(frozen=True)
class MseReport:
    """Empirical MSE against bound values, per block and steady-state.

    Per-block arrays pair ``filter_mse[k]`` with ``filter_bound[k]`` (the
    inverse filtering information of block k) and ``smooth_mse[l]`` with
    ``smooth_bound[l]``. Steady-state scalars aggregate the post-burn-in
    region with one mean squared error per trial, so the standard errors
    reflect between-trial variation only. With a single trial the standard
    errors are undefined and reported as NaN.
    """

    channel: MeasurementChannel
    estimator: str
    seed: int
    num_trials: int
    horizon: int
    lag: int | None
    burn_in: int
    filter_mse: np.ndarray
    filter_se: np.ndarray
    filter_bound: np.ndarray
    smooth_mse: np.ndarray
    smooth_se: np.ndarray
    smooth_bound: np.ndarray
    steady_filter_mse: float
    steady_filter_se: float
    steady_filter_bound: float
    steady_smooth_mse: float
    steady_smooth_se: float
    steady_smooth_bound: float

    def __post_init__(self):
        for name in ("filter_mse", "smooth_mse", "filter_bound", "smooth_bound"):
            if np.any(np.asarray(getattr(self, name)) < 0.0):
                raise ValueError(f"MseReport requires {name} >= 0 everywhere.")


def burn_in_blocks(model: GaussMarkovModel, horizon: int) -> int:
    """Blocks to discard before treating statistics as steady state.

    Matches the geometric moment-convergence rate: ``ceil(10 / (1 -
    alpha^2))``, capped at half the horizon (the cap always applies when
    ``|alpha| = 1``).
    """
    horizon = _integer("horizon", horizon, 1)
    cap = horizon // 2
    if not model.is_stationary:
        return cap
    return min(math.ceil(10.0 / (1.0 - model.alpha**2)), cap)


def simulate(model: GaussMarkovModel, seed: int, num_trials: int,
             horizon: int) -> TrajectoryBatch:
    """Draw a reproducible batch of trajectories and unquantized measurements.

    Parameters
    ----------
    model : GaussMarkovModel
    seed : int
        Root seed in ``[0, 2^64)``.
    num_trials : int
    horizon : int
        Number of measured blocks K >= 1.

    Returns
    -------
    TrajectoryBatch
        Identical inputs produce bit-identical batches.

    Notes
    -----
    One ``default_rng(seed)`` draws ``num_trials`` values for ``theta_0``,
    then per block ``num_trials`` state noises and ``num_trials``
    measurement noises (the module's randomness contract), each straight
    into the block's row of the block-major batch. So the batch at horizon
    ``K`` is the first ``K`` blocks of the batch at any longer horizon with
    the same seed and trial count, while trial ``i``'s path changes with the
    trial count.
    """
    seed = _integer("seed", seed, 0, 2**64 - 1)
    num_trials = _integer("num_trials", num_trials, 1)
    horizon = _integer("horizon", horizon, 1)
    rng = np.random.default_rng(seed)
    states = np.empty((horizon + 1, num_trials))
    observations = np.empty((horizon, num_trials))
    _draw_prior(rng, model, states[0])
    carried = np.empty(num_trials)
    for previous, theta, y in zip(states, states[1:], observations):
        _draw_block(rng, model, previous, theta, y, carried)
    return TrajectoryBatch(states.T, observations.T)


def _draw_prior(rng: np.random.Generator, model: GaussMarkovModel, theta: np.ndarray) -> None:
    """Draw the ``theta_0`` row of all trials into ``theta``: the stream's first values."""
    rng.standard_normal(out=theta)
    theta *= model.sigma0
    theta += model.mu0


def _draw_block(rng: np.random.Generator, model: GaussMarkovModel, previous: np.ndarray,
                theta: np.ndarray, y: np.ndarray, carried: np.ndarray) -> None:
    """Draw block ``k``'s rows ``theta_k`` and ``y_k`` of all trials from ``previous = theta_{k-1}``.

    The state noises come first, then the measurement noises, as the
    randomness contract orders them. ``carried`` is a work row. Every
    batch, whole (:func:`simulate`) or streamed (:func:`monte_carlo_mse`),
    is drawn by this function, so both hold the same values.
    """
    rng.standard_normal(out=theta)
    theta *= model.sigma_z
    # theta_k = alpha theta_{k-1} + z_k: each element gets one product and
    # one sum, as in lfilter's first-order IIR filter, so the bits match it.
    theta += np.multiply(previous, model.alpha, carried)
    rng.standard_normal(out=y)
    y *= model.sigma_eta
    y += theta  # y_k = eta_k + theta_k (the sum commutes)


def kalman_filter(batch: TrajectoryBatch, model: GaussMarkovModel) -> KalmanResult:
    """Exact conditional-mean filter for the unquantized channel: it reads ``y_k``.

    Parameters
    ----------
    batch : TrajectoryBatch
    model : GaussMarkovModel

    Returns
    -------
    KalmanResult
        ``means[:, k]`` is ``E[theta_k | y_1..y_k]``; ``variances[k]`` the
        posterior variance (data-independent in the linear-Gaussian case).
    """
    variances, gains = _kalman_gains(model, batch.horizon)
    means = np.empty((batch.horizon + 1, batch.num_trials))  # block-major
    means[0] = model.mu0
    predicted = np.empty(batch.num_trials)
    for previous, row, y, gain in zip(means, means[1:], batch.observations.T, gains):
        _kalman_update(model, previous, y, gain, row, predicted)
    return KalmanResult(means=means.T, variances=variances)


def _kalman_gains(model: GaussMarkovModel, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The filter's variances ``P_{k|k}``, ``k = 0..K``, and its gains for ``k = 1..K``.

    Neither depends on the data; entry ``k - 1`` of the gains is block ``k``'s.
    """
    p = model.sigma0**2
    variances, gains = [p], []
    a2, q, r = model.alpha**2, model.sigma_z**2, model.sigma_eta**2
    for _ in range(horizon):
        p_pred = a2 * p + q
        gain = p_pred / (p_pred + r)
        p = (1.0 - gain) * p_pred
        variances.append(p)
        gains.append(gain)
    return np.array(variances), np.array(gains)


def _kalman_update(model: GaussMarkovModel, previous: np.ndarray, y: np.ndarray, gain: float,
                   out: np.ndarray, predicted: np.ndarray) -> None:
    """One block of the filter: ``m_k = m_pred + gain (y_k - m_pred)``, ``m_pred = alpha m_{k-1}``.

    ``previous`` is the row ``m_{k-1}`` of all trials and ``y`` the row
    ``y_k``; the means go into ``out``, with ``predicted`` as a work row.
    """
    np.multiply(previous, model.alpha, out=predicted)
    np.subtract(y, predicted, out=out)
    out *= gain
    out += predicted


def rts_smoother(filtered: KalmanResult, model: GaussMarkovModel,
                 lag: int | None = None) -> RtsResult:
    """Rauch-Tung-Striebel smoother, fixed-interval or fixed-lag, in one backward pass.

    With the backward gains ``C_l = alpha P_{l|l} / P_{l+1|l}`` and the
    differences ``d_l = m_{l+1} - alpha m_l`` of the filtered means, the
    fixed-interval correction ``R_l = E[theta_l | y_1..y_K] - m_l`` obeys
    ``R_l = C_l (d_l + R_{l+1})`` with ``R_K = 0``, and the variance
    correction ``S_l = V_l - P_l`` obeys ``S_l = C_l^2 (P_{l+1} - P_{l+1|l}
    + S_{l+1})`` with ``S_K = 0``. The gains do not depend on the data, so a
    smoother that stops at block ``l + delta`` differs from the
    fixed-interval one only by the tail propagated back through the window
    product ``W_l = C_l ... C_{l+delta-1}``:
    ``R_l - W_l R_{l+delta}`` and ``S_l - W_l^2 S_{l+delta}`` (Anderson &
    Moore, *Optimal Filtering*, 1979, ch. 7). Every lag therefore costs one
    O(K) pass over the trials, plus an O(delta K) product of scalars for
    ``W``; the fixed-interval smoother is the zero-window case ``W = 0``. The
    correction is formed before the filtered value is added, so ``lag=0``
    returns the filter output and ``lag=K`` the fixed-interval block 0, bit
    for bit.

    The pass runs over the rows of the block-major filtered means. The
    corrections of the blocks it returns are formed in the rows of its
    block-major result, which then take the smoothed means; only the last
    ``delta`` rows of corrections need a buffer of their own.

    Parameters
    ----------
    filtered : KalmanResult
    model : GaussMarkovModel
    lag : int or None
        ``None`` returns the fixed-interval smoother over all blocks. An
        integer ``delta`` returns, for each block ``l`` with
        ``l + delta <= K``, the estimate of ``theta_l`` given measurements
        1..l+delta; ``lag=0`` reproduces the filter output.

    Returns
    -------
    RtsResult
        Length ``K + 1`` (fixed-interval) or ``K - lag + 1`` (fixed-lag).

    Raises
    ------
    ValueError
        If the horizon is shorter than the requested lag.
    """
    k_max = filtered.horizon
    if lag is not None:
        lag = _integer("lag", lag, 0, k_max)
    p = filtered.variances
    # P_{l+1|l}, formed as the filter forms it, so the bits are the filter's
    p_pred = model.alpha**2 * p[:-1] + model.sigma_z**2
    gains = model.alpha * p[:-1] / p_pred
    c = gains.tolist()
    steps = (p[1:] - p_pred).tolist()
    spread = [0.0] * (k_max + 1)
    for l in range(k_max - 1, -1, -1):
        spread[l] = c[l] * c[l] * (steps[l] + spread[l + 1])
    spread = np.array(spread)
    # W_l = C_l ... C_{l+lag-1}, one shifted slice of the gains at a time; the
    # fixed-interval smoother is the zero-window case, W = 0 at reach 0
    reach, base = (0, 0.0) if lag is None else (lag, 1.0)
    width = k_max + 1 - reach
    window = np.full(width, base)
    for j in range(reach):
        window *= gains[j : j + width]
    spread = spread[:width] - window * window * spread[reach:]
    # Row l of ``corrections`` holds R_l, block-major: blocks 0..width-1 in
    # the rows of the result, the last ``reach`` in ``tail``, freed on return.
    # d_l is formed in R_l's row below K, and R_K = 0.
    m = filtered.means.T  # row l is m_l
    means = np.empty((width, m.shape[1]))
    tail = np.empty((reach, m.shape[1]))
    corrections = [*means, *tail]
    for part, lo in ((means, 0), (tail, width)):
        diff = part[: k_max - lo]
        np.multiply(m[lo : lo + len(diff)], -model.alpha, out=diff)
        diff += m[lo + 1 : lo + 1 + len(diff)]
    corrections[k_max][...] = 0.0
    # R_l = C_l (d_l + R_{l+1}), from block K - 1 down
    for row, later, gain in zip(corrections[-2::-1], corrections[::-1], c[::-1]):
        row += later
        row *= gain
    # R_l - W_l R_{l+reach}, then m_l: rows ascend, so R_{l+reach} is read
    # before its own row is overwritten
    scaled = np.empty(m.shape[1])
    for row, source, w, filt in zip(means, corrections[reach:], window.tolist(), m):
        row -= np.multiply(source, w, out=scaled)
        row += filt
    return RtsResult(means=means.T, variances=p[:width] + spread)


def kalman_steady_variance(model: GaussMarkovModel) -> float:
    """Steady-state posterior variance of the Kalman filter.

    The fixed point of the Riccati variance recursion
    ``P <- (alpha^2 P + q) r / (alpha^2 P + q + r)``, with ``q = sigma_z^2``
    and ``r = sigma_eta^2``: the positive root of
    ``alpha^2 P^2 + B P - q r = 0``, ``B = q + r (1 - alpha^2)``, written as
    ``2 q r / (B + sqrt(B^2 + 4 alpha^2 q r))``. Kept in covariance form,
    independent of the information recursions, so the two can be checked
    against each other.
    """
    q = model.sigma_z**2
    r = model.sigma_eta**2
    b = q + r * (1.0 - model.alpha**2)
    return 2.0 * q * r / (b + math.sqrt(b * b + 4.0 * model.alpha**2 * q * r))


def rts_steady_variance(model: GaussMarkovModel) -> float:
    """Steady-state smoothed variance of the long-lag RTS smoother.

    With the steady filter variance ``P`` and the steady gain
    ``c = alpha P / P_pred``, the fixed point of the backward variance step
    ``V <- P + c^2 (V - P_pred)``: ``(P - c^2 P_pred) / (1 - c^2)``.
    """
    p = kalman_steady_variance(model)
    p_pred = model.alpha**2 * p + model.sigma_z**2
    c = model.alpha * p / p_pred
    return (p - c**2 * p_pred) / (1.0 - c**2)


def _grid_axis(model: GaussMarkovModel, spec: GridSpec, horizon: int) -> np.ndarray:
    scale = max(model.sigma0, math.sqrt(state_moments(model, horizon).variance))
    width = spec.half_width * scale + abs(model.mu0)
    return np.linspace(-width, width, spec.num_points)


def _cell_masses(points, centers, sd: float, h: float) -> np.ndarray:
    """Mass of ``N(center, sd^2)`` in the width-``h`` cell around each point, elementwise.

    Both cell edges go through one ``q_function`` call, which is elementwise,
    so the masses equal those of one call per edge.
    """
    tails = q_function(np.concatenate(((points - 0.5 * h - centers) / sd,
                                       (points + 0.5 * h - centers) / sd)))
    return np.subtract(tails[:points.size], tails[points.size:], out=tails[:points.size])


# Rows per dense tile of the grid operators. On the 1000-point default grid
# with 50 trials, tiles of 32 to 64 rows ran alike, 0.16-0.22 ms per product
# against 0.7-1.1 ms for CSR; 96 and 128 rows ran slower (2 vCPUs, one BLAS
# thread).
_TILE_ROWS = 48
# Groups of columns whose band entries the build evaluates together: each
# group holds about 1/56 of the entries, so the float64 temporaries of its
# cell masses, both edges in one q_function call, stay small beside the
# float32 tiles (the build peaked at 1.32x the tiles at 1000 points and 1.38x
# at 5000; 1.36x and 1.44x with 48 groups), and a narrow band does not pay
# numpy's per-call cost once per tile.
_BUILD_GROUPS = 56
# Every grid array that feeds a product holds no nonzero entry below this
# floor: the tiles and the one-bit table absolutely, each filtered posterior
# and the smoother's backward evidence relative to their trial's total. A
# tile entry times a posterior entry is then at least 2^-100 of the total, a
# normal float32 (above 2^-126 = 1.2e-38) for any total above 2^-26;
# float32 subnormals make a product several times slower. A floor of 1e-20
# let subnormals reach the smoother's products at +5 dB. The floor is far
# below float32 rounding, so it moves no moment beyond it.
_FLOOR = 2.0**-50


def _apply_tiles(tiles: tuple, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A @ x`` for a row-tiled operator ``A``: one BLAS product per tile."""
    for r0, r1, c0, c1, block in tiles:
        np.matmul(block, x[c0:c1], out=out[r0:r1])
    return out


def _flush(x: np.ndarray, floor, mask: np.ndarray) -> None:
    """Set the entries of the nonnegative float32 ``x`` below ``floor`` to 0, in place.

    ``floor`` is a float32 scalar or a per-trial (trials,) row. Nonnegative
    floats order as their int32 bit patterns, so the test and the zeroing
    multiply both run on integers. The multiply is what needs it: a float32
    multiply that yields a subnormal (a kept subnormal entry, which a
    per-trial floor below the normal range lets through) ran more than ten
    times slower than on normal values, while a float32 compare ran as fast
    on subnormals. ``mask`` is a bool buffer of ``x``'s shape.
    """
    bits = x.view(np.int32)
    np.greater_equal(bits, np.asarray(floor, dtype=np.float32).view(np.int32), out=mask)
    np.multiply(bits, mask, out=bits)


@dataclass(frozen=True)
class _GridOperators:
    """The grid's tiled operators and one-bit likelihood table, built once per grid.

    ``forward`` holds the row tiles of the transition operator ``T``, whose
    column j holds the exact cell masses of ``N(alpha * axis[j], sigma_z^2)``
    within 8.5 sigma_z of the center; ``adjoint`` holds those of ``T'``.
    Tile ``(r0, r1, c0, c1, block)`` is the dense float32 block of rows
    ``r0..r1-1`` over the columns ``c0..c1-1`` their entries span (none for
    rows without entries), filled from its own band entries only, each
    computed in float64 and rounded once. ``sign_likes`` is the float32
    one-bit likelihood table. Entries of both below ``_FLOOR`` are 0. The
    filter, the smoother and every sub-batch of :func:`monte_carlo_mse`
    share one instance.
    """

    axis: np.ndarray
    forward: tuple
    adjoint: tuple
    sign_likes: np.ndarray

    def likelihood(self, observation: np.ndarray, out: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """``scale`` times each trial's likelihood of ``observation``'s sign at each grid point.

        ``observation`` (trials,) is one block's column of the observations
        and ``scale`` a float32 (trials,) row: the filter carries its
        normalisation of the posterior in it, the smoother that of the
        backward evidence. The result goes into float32 ``out`` (n, trials).
        ``y >= 0`` is +1. The signs build the selector ``[~up; up] * scale``,
        so a product with ``sign_likes`` gathers and scales its columns
        exactly (each entry is ``scale * q + 0 * q'``) and, unlike
        ``np.take``, writes into ``out`` at BLAS speed.
        """
        up = observation >= 0.0
        # np.array builds the (2, trials) selector in C, np.stack in Python
        return np.matmul(self.sign_likes, np.array((~up, up)) * scale, out=out)


def _grid_operators(axis: np.ndarray, model: GaussMarkovModel) -> _GridOperators:
    n = axis.size
    h = axis[1] - axis[0]
    centers = model.alpha * axis
    halfband = int(np.ceil(8.5 * model.sigma_z / h)) + 1
    # column j of T has entries in rows top[j] .. bottom[j] - 1: the band
    # base[j] +- halfband, clipped to the grid
    base = np.rint((centers - axis[0]) / h).astype(int)
    top = np.maximum(base - halfband, 0)
    bottom = np.maximum(np.minimum(base + halfband + 1, n), top)
    starts = np.arange(0, n, _TILE_ROWS)
    ends = np.minimum(starts + _TILE_ROWS, n)

    def tiling(c0: np.ndarray, c1: np.ndarray) -> tuple:
        """Spans, offsets and one zeroed buffer of the row tiles over columns c0..c1-1."""
        c0, c1 = np.where(c1 > c0, c0, 0), np.where(c1 > c0, c1, 0)
        sizes = (ends - starts) * (c1 - c0)
        return c0, c1, np.cumsum(sizes) - sizes, np.zeros(int(sizes.sum()), dtype=np.float32)

    def scatter(layout: tuple, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
        c0, c1, offsets, buffer = layout
        tile = rows // _TILE_ROWS
        buffer[offsets[tile] + (rows - starts[tile]) * (c1 - c0)[tile] + cols - c0[tile]] = values

    def tiles(layout: tuple) -> tuple:
        """``(r0, r1, c0, c1, block)`` per row tile, each block a view of the buffer."""
        c0, c1, offsets, buffer = layout
        return tuple((r0, r1, a, b, buffer[o:o + (r1 - r0) * (b - a)].reshape(r1 - r0, b - a))
                     for r0, r1, a, b, o in zip(starts.tolist(), ends.tolist(), c0.tolist(),
                                                c1.tolist(), offsets.tolist()))

    # Row tile i of T spans the columns whose band reaches its rows. base is
    # monotone in the column (decreasing for alpha < 0), so they are one
    # range, found by searchsorted for all tiles at once.
    sign = 1 if model.alpha >= 0.0 else -1
    lo, hi = np.sort([sign * (starts - halfband), sign * (ends - 1 + halfband)], axis=0)
    forward = tiling(np.searchsorted(sign * base, lo, "left"),
                     np.searchsorted(sign * base, hi, "right"))
    # Row tile i of T' (columns starts[i] .. ends[i] - 1 of T) spans the rows
    # of T that those columns' bands reach.
    nonempty = bottom > top
    adjoint = tiling(np.minimum.reduceat(np.where(nonempty, top, n), starts),
                     np.maximum.reduceat(np.where(nonempty, bottom, 0), starts))
    # Each entry is evaluated once in float64, for both operators, a group of
    # columns at a time; the groups split the entries, not the columns, evenly.
    count = bottom - top
    targets = count.sum() * np.arange(1, _BUILD_GROUPS) / _BUILD_GROUPS
    cuts = (np.searchsorted(np.cumsum(count), targets) + 1).tolist()
    for c0, c1 in zip([0, *cuts], [*cuts, n]):
        group = count[c0:c1]
        cols = np.repeat(np.arange(c0, c1), group)
        rows = np.arange(cols.size) + np.repeat(top[c0:c1] - (np.cumsum(group) - group), group)
        values = _cell_masses(axis[rows], centers[cols], model.sigma_z, h)
        values[values < _FLOOR] = 0.0
        scatter(forward, rows, cols, values)
        scatter(adjoint, cols, rows, values)
    # column 0: P(y = -1 | theta), column 1: P(y = +1 | theta)
    sign_likes = np.stack((q_function(axis / model.sigma_eta),
                           q_function(-axis / model.sigma_eta)), axis=1).astype(np.float32)
    _flush(sign_likes, _FLOOR, np.empty(sign_likes.shape, dtype=bool))
    return _GridOperators(axis=axis, forward=tiles(forward), adjoint=tiles(adjoint),
                          sign_likes=sign_likes)


def _powers(axis: np.ndarray) -> np.ndarray:
    """``[1; x; x^2]`` on the grid, shape (3, n): one product with it gives a pmf's raw moments."""
    return np.stack((np.ones_like(axis), axis, axis * axis))


def _moments(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's mean and variance from its raw moments ``raw = _powers(axis) @ mass``.

    ``raw`` (3, trials) holds the total, first and second moment of an
    unnormalised (n, trials) ``mass``, whose moments are the last two divided
    by the total, so the mass itself need not be normalised. Rows 1 and 2 of
    ``raw`` are overwritten with the mean and variance and returned.
    """
    total, mean, var = raw
    mean /= total
    var /= total
    var -= mean * mean
    np.maximum(var, 0.0, out=var)
    return mean, var


def _checkpoint_stride(horizon: int) -> int:
    """Blocks between the filter's checkpoints, ``ceil(sqrt(K + 1))``.

    The checkpoints and one replayed segment then hold about ``2 sqrt(K)``
    posteriors in place of ``K + 1``, for one more forward pass.
    """
    return math.isqrt(horizon) + 1


def grid_filter(batch: TrajectoryBatch, model: GaussMarkovModel,
                grid: GridSpec = GridSpec(), *,
                operators: _GridOperators | None = None) -> GridFilterResult:
    """Discretized Bayes filter on a uniform point-mass grid.

    Each block applies the banded transition operator to the previous
    posterior and multiplies by the likelihood of the sign of the block's
    observation (``y >= 0`` is +1): the reference estimator for the one-bit
    channel. A batch of signs, ``+-1``, reads as itself.

    Nothing is normalised in place: each trial's total ``t_k``, from the
    moment product, is carried into the next block's likelihood as
    ``1 / t_k`` (see :meth:`_GridOperators.likelihood`), and the entries of
    the posterior below ``2^-50 t_k`` are set to 0. The posterior of every
    ``c``-th block is kept as a checkpoint, with the totals of every block,
    for :func:`grid_smoother`; see :class:`GridFilterResult`.

    ``operators``, when given, replaces the grid built from ``grid``: it
    lets :func:`monte_carlo_mse` build the operators once for all its
    sub-batches. It must come from the same model, grid and horizon.

    Returns
    -------
    GridFilterResult

    Raises
    ------
    NumericalDegeneracyError
        If a posterior loses all mass (state escaped the grid); widen
        ``GridSpec.half_width`` or add points.
    """
    if operators is None:
        operators = _grid_operators(_grid_axis(model, grid, batch.horizon), model)
    axis = operators.axis
    n, trials, k_max = axis.size, batch.num_trials, batch.horizon
    stride = _checkpoint_stride(k_max)

    prior = _cell_masses(axis, model.mu0, model.sigma0, axis[1] - axis[0])
    total = prior.sum()
    if not total > 0.0:
        raise NumericalDegeneracyError("prior mass vanished on the grid; widen the grid.")
    # block-major, so each block is one contiguous (n, trials) slab
    checkpoints = np.empty((k_max // stride + 1, n, trials), dtype=np.float32)
    # float32 working slabs, a float64 one for the moment product, and one
    # bool slab for the flushes, all allocated once per call
    slabs = np.empty((2, n, trials), dtype=np.float32)
    lik = np.empty((n, trials), dtype=np.float32)
    wide = np.empty((n, trials))
    mask = np.empty((n, trials), dtype=bool)
    inverse = np.empty(trials, dtype=np.float32)
    floor = np.empty(trials, dtype=np.float32)
    powers = _powers(axis)
    raw = np.empty((3, trials))
    # below the smallest normal float32, 1 / total would overflow
    tiny = np.finfo(np.float32).tiny

    means = np.empty((k_max + 1, trials))  # block-major, like the totals
    variances = np.empty((k_max + 1, trials))
    totals = np.empty((k_max + 1, trials))
    totals[0] = 1.0
    wide[...] = (prior / total)[:, None]
    means[0], variances[0] = _moments(np.matmul(powers, wide, out=raw))
    checkpoints[0] = wide
    _flush(checkpoints[0], _FLOOR, mask)

    def measure(k: int, posterior: np.ndarray) -> None:
        # the moments accumulate in float64: m2 / total - mean^2 cancels
        np.copyto(wide, posterior)
        total = np.matmul(powers, wide, out=raw)[0]
        if not (total.min() >= tiny and total.max() < math.inf):
            raise NumericalDegeneracyError(
                f"posterior mass vanished at block {k}; widen the grid.", block=k
            )
        totals[k] = total
        means[k], variances[k] = _moments(raw)

    for start in range(0, k_max, stride):
        segment = [checkpoints[k // stride] if k % stride == 0 else slabs[k % 2]
                   for k in range(start, min(start + stride, k_max) + 1)]
        _forward(operators, batch.observations, totals, start, segment,
                 lik, mask, inverse, floor, measure)
    return GridFilterResult(axis=axis, means=means.T, variances=variances.T,
                            pmfs=checkpoints.transpose(2, 0, 1), totals=totals, batch=batch,
                            operators=operators)


def _forward(operators: _GridOperators, observations: np.ndarray, totals: np.ndarray,
             start: int, slabs, lik: np.ndarray, mask: np.ndarray, inverse: np.ndarray,
             floor: np.ndarray, measure=None) -> None:
    """The filter's recursion over blocks ``start + 1 .. start + len(slabs) - 1``.

    ``slabs[0]`` holds block ``start``'s flushed posterior; slab ``i``, float32
    (n, trials), receives ``(T slab_{i-1}) * like_k / t_{k-1}`` for block
    ``k = start + i``, ``t_{k-1} = totals[k - 1]``: the unnormalised posterior
    of a normalised predecessor. ``measure(k, slab)``, when given, writes
    ``totals[k]`` (and the moments) before the entries below ``2^-50 t_k``
    are set to 0. The filter measures; :func:`_replay` reads the stored
    totals, so both write the same bits. ``lik`` and ``mask`` have a slab's
    shape, ``inverse`` and ``floor`` are float32 (trials,) rows.
    """
    for i in range(1, len(slabs)):
        k = start + i
        np.divide(1.0, totals[k - 1], out=inverse)
        posterior = _apply_tiles(operators.forward, slabs[i - 1], slabs[i])
        posterior *= operators.likelihood(observations[:, k - 1], lik, inverse)
        if measure is not None:
            measure(k, posterior)
        _flush(posterior, np.multiply(totals[k], _FLOOR, out=floor), mask)


def _replay(filtered: GridFilterResult, start: int, out: np.ndarray, lik: np.ndarray,
            mask: np.ndarray, inverse: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """The filter's posteriors of blocks ``start .. start + len(out) - 1`` into ``out``.

    ``start`` is a checkpoint block; ``out`` (blocks, n, trials) float32
    receives its checkpoint, then the filter's own loop (:func:`_forward`)
    on the totals that the filter stored, so every slab equals the filter's
    posterior bit for bit. It writes only ``out`` and the work buffers of
    :func:`_forward`.
    """
    np.copyto(out[0], filtered.pmfs[:, start // _checkpoint_stride(filtered.horizon)].T)
    _forward(filtered.operators, filtered.batch.observations, filtered.totals, start, out,
             lik, mask, inverse, floor)
    return out


def grid_smoother(filtered: GridFilterResult) -> GridSmootherResult:
    """Fixed-interval smoother on the filter's grid.

    Runs the backward evidence pass ``beta_l = T' (like_{l+1} *
    beta_{l+1} / s_{l+1})`` and combines it with the filtering posteriors,
    so every block is conditioned on all measurements in the batch. (A
    fixed-lag variant would need one backward pass per block; the
    fixed-interval form costs one pass and bounds for it come from the
    smoothing recursion anchored at the final block.) It runs on the
    filter's grid with the filter's operators, so it needs no model.

    The filtering posteriors are recomputed, not stored: segment by
    segment, from the last one back, the filter's own loop is replayed from
    a checkpoint over the segment's ``c`` blocks (:func:`_replay`), and the
    backward pass then runs over them in reverse. Memory holds the
    checkpoints and one segment; time pays one more forward pass.

    Nothing is normalised in place. ``s_l``, each trial's sum of ``beta_l``
    (one product with a row of ones), keeps the evidence from underflowing
    over a long horizon: its inverse is carried into the next block's
    likelihood (see :meth:`_GridOperators.likelihood`), so ``beta_l`` itself
    is never rescaled; only its entries below ``2^-50 s_l`` are set to 0.
    The smoothed posterior's moments are divided by its own total, so
    neither scale changes them.

    Returns
    -------
    GridSmootherResult

    Raises
    ------
    NumericalDegeneracyError
        If the backward evidence or a smoothed posterior loses all mass.
    """
    axis = filtered.axis
    batch = filtered.batch
    operators = filtered.operators
    trials, k_max = batch.num_trials, filtered.horizon
    stride = _checkpoint_stride(k_max)
    powers = _powers(axis)
    ones = np.ones(axis.size, dtype=np.float32)
    raw = np.empty((3, trials))

    means = np.empty((k_max + 1, trials))  # block-major, as the filter's
    variances = np.empty((k_max + 1, trials))
    means[k_max] = filtered.means[:, k_max]
    variances[k_max] = filtered.variances[:, k_max]
    segment = np.empty((min(stride, k_max), axis.size, trials), dtype=np.float32)
    beta = np.ones((axis.size, trials), dtype=np.float32)
    weighted = np.empty_like(beta)
    wide = np.empty(beta.shape)
    mask = np.empty(beta.shape, dtype=bool)
    tiny = np.finfo(np.float32).tiny
    # one buffer for s_l and then 1 / s_l (ones for beta_K = 1), one for the
    # replay's scale, and one for the flush floors: fresh per-block
    # temporaries here raised monte_carlo_mse's peak RSS by up to 0.5 MiB
    # through the heap's allocation pattern
    inverse = np.ones(trials, dtype=np.float32)
    step_scale = np.empty(trials, dtype=np.float32)
    floor = np.empty(trials, dtype=np.float32)
    for start in range(k_max - 1 - (k_max - 1) % stride, -1, -stride):
        blocks = min(stride, k_max - start)
        # ``weighted`` is free until the backward step below rewrites it
        _replay(filtered, start, segment[:blocks], weighted, mask, step_scale, floor)
        for l in range(start + blocks - 1, start - 1, -1):
            operators.likelihood(batch.observations[:, l], weighted, inverse)
            weighted *= beta
            _apply_tiles(operators.adjoint, weighted, beta)
            mass = np.matmul(ones, beta, out=inverse)
            # below the smallest normal float32, 1 / s_l would overflow
            if not (mass.min() >= tiny and mass.max() < math.inf):
                raise NumericalDegeneracyError(
                    f"backward evidence vanished at block {l}; widen the grid.", block=l
                )
            _flush(beta, np.multiply(mass, _FLOOR, out=floor), mask)
            np.divide(1.0, mass, out=inverse)
            # block l's filtered posterior is not read again
            posterior = np.multiply(segment[l - start], beta, out=segment[l - start])
            np.copyto(wide, posterior)
            total = np.matmul(powers, wide, out=raw)[0]
            if not total.min() > 0.0:
                raise NumericalDegeneracyError(
                    f"smoothed posterior mass vanished at block {l}; widen the grid.", block=l
                )
            means[l], variances[l] = _moments(raw)
    return GridSmootherResult(means=means.T, variances=variances.T)


def _trial_stats(errors_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over trials (axis 0) of squared errors.

    ``errors_sq`` is overwritten with the deviations, formed as ``std(axis=0,
    ddof=1)`` forms them, so both results equal numpy's bit for bit.
    """
    trials = errors_sq.shape[0]
    mse = errors_sq.mean(axis=0)
    if trials < 2:
        return mse, np.full_like(mse, np.nan)
    deviations = np.subtract(errors_sq, mse, out=errors_sq)
    np.square(deviations, out=deviations)
    se = np.sqrt(deviations.sum(axis=0) / (trials - 1)) / math.sqrt(trials)
    return mse, se


class _ErrorStats:
    """Per-block MSE and SE over trials, and one steady-window MSE per trial.

    :meth:`add` takes the next rows of an estimator's block-major means,
    with the matching rows of the states, in block order; ``lo..hi`` is the
    steady window. Rows may come one chunk at a time or as one whole array,
    with the same bits: each block's statistics come from its own row
    (:func:`_trial_stats`), and each trial's window sum adds the rows one by
    one in block order, as ``mean(axis=1)`` over a ``(trials, blocks)``
    array does.
    """

    def __init__(self, blocks: int, trials: int, lo: int, hi: int):
        self.mse = np.empty(blocks)
        self.se = np.empty(blocks)
        self.lo, self.hi = lo, hi
        self.sums = np.zeros(trials)
        self.blocks_added = 0

    def add(self, means: np.ndarray, states: np.ndarray) -> None:
        """Add the rows of ``means`` (overwritten with the squared errors) against ``states``."""
        errors_sq = np.square(np.subtract(means, states, out=means), out=means)
        first = self.blocks_added
        stop = self.blocks_added = first + len(errors_sq)
        for row in errors_sq[max(self.lo - first, 0) : max(self.hi + 1 - first, 0)]:
            self.sums += row
        self.mse[first:stop], self.se[first:stop] = _trial_stats(errors_sq.T)

    def steady(self) -> tuple[float, float]:
        """The mean and standard error over trials of each trial's steady-window MSE."""
        mse, se = _trial_stats(self.sums / (self.hi - self.lo + 1))
        return float(mse), float(se)


def _lagged_gains(model: GaussMarkovModel, fims: np.ndarray, lag: int) -> np.ndarray:
    """Smoothing gains kappa(l | l + lag) for blocks 0..K-lag, all anchors at once.

    Step ``j`` (from ``lag`` down to 1) folds in block ``l + j`` for every
    ``l``: the information-side bound of the fixed-lag smoother, O(lag K)
    in scalars.
    """
    width = fims.shape[0] - lag
    s, a2s = _gain_coefficients(model)
    gains = np.zeros(width)
    for j in range(lag, 0, -1):
        gains = _gain_step(gains, fims[j : j + width], s, a2s)
    return gains


# Trials per grid sub-batch, and the bytes of checkpoints and replayed
# segment that one may hold. At alpha 0.999, -10 dB, horizon 500 on the
# default grid (one BLAS thread), 400 trials ran alike in sub-batches of 100
# and 200, and 100 ran 20% faster as one than as two of 50; 100 trials hold
# 18 MB there, and a 100,000-point grid runs one trial at a time.
_SUB_BATCH_TRIALS = 100
_SUB_BATCH_BYTES = 20_000_000


def _sub_batch_trials(num_points: int, horizon: int) -> int:
    """Trials per grid sub-batch: the width cap, or fewer where they pass the bytes cap."""
    stride = _checkpoint_stride(horizon)
    slabs = horizon // stride + 1 + min(stride, horizon)
    return max(1, min(_SUB_BATCH_TRIALS, _SUB_BATCH_BYTES // (4 * num_points * slabs)))


# Blocks that each window of the streamed Kalman path adds: at least the lag,
# so the backward pass that the windows share costs at most twice a
# whole-batch pass, and at least 64, so the smoother's fixed cost per call
# stays small at short lags. At 2000 trials and horizon 500 (one BLAS thread,
# medians of 8 in-process runs) lag 100 ran alike at C = 50 to 256 (45-52 ms,
# as the whole batch), lag 0 and 10 ran alike at C = 16 to 256 (37-51 ms);
# the run-to-run spread was 5 ms. The window's rows take 3 (C + lag) rows of
# all trials: 9.2 MiB at lag 100, against 23 MiB for three whole arrays.
_CHUNK_BLOCKS = 64


def _chunk_blocks(lag: int) -> int:
    """Blocks per window of the streamed Kalman path: ``max(lag, 64)``."""
    return max(lag, _CHUNK_BLOCKS)


def _stream_kalman(model: GaussMarkovModel, seed: int, num_trials: int, horizon: int, lag: int,
                   filter_stats: _ErrorStats, smooth_stats: _ErrorStats) -> None:
    """Draw, filter and lag-smooth the batch of ``seed`` window by window, into the statistics.

    The window holds the state and filtered-mean rows of at most ``C + lag
    + 1`` blocks, ``C = _chunk_blocks(lag)``: :func:`_draw_block` and
    :func:`_kalman_update` fill its rows, and :func:`rts_smoother` runs on
    it as on a whole batch that ends at its last block ``top``. That
    anchor changes only rounding for the blocks ``l <= top - lag``: their
    fixed-lag correction ``R_l - W_l R_{l+lag}`` is the same for every
    anchor at or past ``l + lag`` in exact arithmetic. So those blocks are
    final and go to the statistics, and the next window starts from the
    last ``lag + 1`` rows, whose first block is final already (its filtered
    mean carries the filter on when the lag is 0). The filter's means
    become their squared errors in the window's rows, the smoother's in the
    rows it returns. A horizon within one window runs the arithmetic of the
    whole-batch path.
    """
    variances, gains = _kalman_gains(model, horizon)
    capacity = _chunk_blocks(lag) + lag + 1
    states = np.empty((capacity, num_trials))  # block-major rows of the window
    means = np.empty((capacity, num_trials))
    y = np.empty(num_trials)
    work = np.empty(num_trials)
    rng = np.random.default_rng(seed)
    _draw_prior(rng, model, states[0])
    means[0] = model.mu0
    # the window's first block, its rows filled, and its first row not yet smoothed
    lo, filled, fresh = 0, 1, 0
    while True:
        top = min(lo + capacity - 1, horizon)
        rows = top - lo + 1
        for i in range(filled, rows):
            _draw_block(rng, model, states[i - 1], states[i], y, work)
            _kalman_update(model, means[i - 1], y, gains[lo + i - 1], means[i], work)
        window = KalmanResult(means=means[:rows].T, variances=variances[lo : top + 1])
        final = rows - lag  # rows 0..final-1 are smoothed for good
        # the smoothed rows are freed before the next window smooths
        smooth_stats.add(rts_smoother(window, model, lag).means.T[fresh:], states[fresh:final])
        if top == horizon:
            filter_stats.add(means[:rows], states[:rows])
            return
        filter_stats.add(means[: final - 1], states[: final - 1])
        means[: lag + 1] = means[final - 1 : rows]
        states[: lag + 1] = states[final - 1 : rows]
        lo, filled, fresh = top - lag, lag + 1, 1


# The channel that each estimator of monte_carlo_mse reads.
_ESTIMATOR_CHANNELS = {"kalman": MeasurementChannel.UNQUANTIZED, "grid": MeasurementChannel.ONE_BIT}


def monte_carlo_mse(model: GaussMarkovModel, channel: MeasurementChannel, estimator: str,
                    seed: int, num_trials: int, horizon: int, lag: int = 0,
                    grid: GridSpec = GridSpec(),
                    spec: QuadratureSpec = DEFAULT_QUADRATURE) -> MseReport:
    """Empirical filtering and smoothing MSE paired with their bounds.

    Both estimators read the unquantized batch of ``seed`` that
    :func:`simulate` draws, the same values block row by block row.
    ``channel``, checked before anything is drawn, selects the bounds and
    must be the estimator's own.

    The Kalman path streams: it draws, filters and lag-smooths the batch in
    windows of ``C + lag + 1`` block rows, ``C = max(lag, 64)`` blocks
    added per window, and reduces each block's rows as they become final.
    Its memory is about ``3 (C + lag)`` rows of ``num_trials`` floats plus
    a few floats per block, so it does not grow with the horizon (at 2000
    trials and lag 100, 9.2 MiB of rows against 23 MiB for the batch and
    both means whole). The filter fields and the steady filter scalars
    equal those of the whole batch bit for bit; each window anchors the
    smoother at its own last block, which moves the smoother fields by
    rounding only: within 1e-14 relative from 20 trials up (4.4e-16 at 2000
    trials and horizon 500); with one trial an entry is a single squared
    error and moves more where that error is small. A horizon of at most
    ``C + lag`` blocks is one window and runs the whole batch's arithmetic.

    Parameters
    ----------
    model : GaussMarkovModel
    channel : MeasurementChannel
    estimator : str
        ``"kalman"`` (unquantized channel only; RTS smoothing at the given
        lag) or ``"grid"`` (one-bit channel only, reading the signs;
        fixed-interval smoothing).
    seed, num_trials, horizon : int
        Simulation parameters, checked as :func:`simulate` checks them on
        both paths, before any quadrature or draw; see :func:`simulate`.
    lag : int
        Smoothing lag for the Kalman path, ``>= 0`` and checked before
        anything is drawn; the steady region must fit,
        ``horizon > burn-in + lag``. The grid path requires 0.
    grid : GridSpec
        Grid geometry for the grid path; the Kalman path requires the
        default. The grid path runs its trials in sub-batches of up to
        100, one tile product wide, fewer on grids where their checkpoints
        and replayed segment would pass 20 MB (:func:`_sub_batch_trials`);
        the split moves results by summation order only. The grid path
        holds its whole batch and both its means, ``(trials, K + 1)`` each;
        the grid itself grows as ``sqrt(K)`` in the horizon, not as K.
    spec : QuadratureSpec
        Quadrature for the bound values.

    Returns
    -------
    MseReport
    """
    if estimator not in _ESTIMATOR_CHANNELS:
        raise ValueError(f"estimator must be 'kalman' or 'grid', got {estimator!r}.")
    paired = _ESTIMATOR_CHANNELS[estimator]
    # a channel name is no channel: per_block_fims raises its TypeError
    if isinstance(channel, MeasurementChannel) and channel is not paired:
        raise ValueError(f"the {estimator} estimator requires the {paired.value} channel.")
    seed = _integer("seed", seed, 0, 2**64 - 1)
    num_trials = _integer("num_trials", num_trials, 1)
    horizon = _integer("horizon", horizon, 1)
    lag = _integer("lag", lag, 0)
    if estimator == "grid" and lag != 0:
        raise ValueError(f"the grid estimator smooths over the whole interval; got lag {lag}.")
    if estimator == "kalman" and grid != GridSpec():
        raise ValueError(f"the kalman estimator reads no grid; got {grid}.")
    burn = burn_in_blocks(model, horizon)
    if estimator == "kalman" and not horizon > burn + lag:
        raise ValueError(f"horizon {horizon} too short for burn-in {burn} plus lag {lag}.")
    fims = per_block_fims(model, channel, horizon, spec)
    filter_info = filtered_information(model, fims)
    steady_fim = steady_expected_fim(model, channel, spec)
    steady_j = quadratic_filter_root(model, steady_fim)
    filter_stats = _ErrorStats(horizon + 1, num_trials, burn, horizon)

    if estimator == "kalman":
        smooth_bounds = 1.0 / (filter_info[: horizon - lag + 1] + _lagged_gains(model, fims, lag))
        steady_smooth_bound = 1.0 / (steady_j + steady_lag_gain(model, steady_fim, lag))
        del fims  # freed before the stream, whose window is all that runs longer with K
        smooth_stats = _ErrorStats(horizon - lag + 1, num_trials, burn, horizon - lag)
        _stream_kalman(model, seed, num_trials, horizon, lag, filter_stats, smooth_stats)
        report_lag: int | None = lag
    else:
        smooth_stats = _ErrorStats(horizon + 1, num_trials, burn, max(burn, horizon - burn // 2))
        smooth_bounds = 1.0 / (filter_info + smoothing_gain(model, fims))
        steady_smooth_bound = 1.0 / (steady_j + quadratic_gain_root(model, steady_fim))
        batch = simulate(model, seed, num_trials, horizon)
        states = batch.states
        est_f = np.empty_like(states)
        est_s = np.empty_like(states)
        step = _sub_batch_trials(grid.num_points, horizon)
        operators = _grid_operators(_grid_axis(model, grid, horizon), model)
        for start in range(0, num_trials, step):
            trials = slice(start, start + step)
            gf = grid_filter(TrajectoryBatch(states[trials], batch.observations[trials]),
                             model, grid, operators=operators)
            est_f[trials] = gf.means
            est_s[trials] = grid_smoother(gf).means
            del gf  # freed before the next sub-batch runs
        del batch  # the observations are not read again
        # the block-major rows of the whole arrays, as the Kalman path's windows
        filter_stats.add(est_f.T, states.T)
        smooth_stats.add(est_s.T, states.T)
        report_lag = None

    steady_f_mse, steady_f_se = filter_stats.steady()
    steady_s_mse, steady_s_se = smooth_stats.steady()
    return MseReport(
        channel=channel,
        estimator=estimator,
        seed=seed,
        num_trials=num_trials,
        horizon=horizon,
        lag=report_lag,
        burn_in=burn,
        filter_mse=filter_stats.mse,
        filter_se=filter_stats.se,
        filter_bound=1.0 / filter_info,
        smooth_mse=smooth_stats.mse,
        smooth_se=smooth_stats.se,
        smooth_bound=smooth_bounds,
        steady_filter_mse=steady_f_mse,
        steady_filter_se=steady_f_se,
        steady_filter_bound=1.0 / steady_j,
        steady_smooth_mse=steady_s_mse,
        steady_smooth_se=steady_s_se,
        steady_smooth_bound=steady_smooth_bound,
    )
