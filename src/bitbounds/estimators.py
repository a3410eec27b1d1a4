"""Reference Bayesian estimators and the Monte Carlo bound-validation harness.

The bounds computed by the information recursions are only evidence if an
estimator can be shown to respect (and, where theory says so, attain) them.
This module provides:

* an exact Kalman filter and Rauch-Tung-Striebel smoother for the
  unquantized channel, where the conditional mean is available in closed
  form and attains the bounds;
* a grid (point-mass) filter and fixed-interval smoother that approximate
  the conditional mean for the one-bit channel, where no closed form
  exists. The banded transition operator and its adjoint are stored as
  dense row tiles, each over only the columns its rows touch and filled
  from its own band entries, and applied with one BLAS matrix product per
  tile; neither the n x n matrix nor a list of all band entries is formed;
* a seeded trajectory simulator and a Monte Carlo harness that compares
  empirical MSE per block against the matching bound values. The simulator
  runs the state recursion as a numpy loop over blocks, bit-identical to
  ``scipy.signal.lfilter`` (the tests' oracle) without importing it.

Randomness contract: trial ``i`` draws from ``default_rng`` seeded with the
``i``-th child of ``numpy.random.SeedSequence(seed)``; within a trial a
single standard-normal vector of length ``2 * horizon + 1`` is drawn and
split as ``[theta_0 draw, z_1..z_K, eta_1..eta_K]``. Batches are therefore
bit-reproducible from ``seed`` alone, and every reduction below runs in
fixed trial order so repeated runs agree to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bim import filtered_information, per_block_fims, smoothing_gain
from .core import GaussMarkovModel, MeasurementChannel, gain_step, state_moments
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
    """Simulated state trajectories with their measurements.

    Parameters
    ----------
    seed : int
        Root seed in ``[0, 2^64)``; see the module docstring for the
        per-trial substream derivation.
    num_trials : int
        Number of independent trajectories, at least 1.
    horizon : int
        Number of measured blocks K; states carry one extra column for
        block 0.
    channel : MeasurementChannel
    states : ndarray, shape (num_trials, horizon + 1)
        ``states[:, k]`` is ``theta_k``.
    observations : ndarray, shape (num_trials, horizon)
        ``observations[:, k - 1]`` is the measurement of block k; values
        are in {-1, +1} for the one-bit channel.
    """

    seed: int
    num_trials: int
    horizon: int
    channel: MeasurementChannel
    states: np.ndarray
    observations: np.ndarray

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}.")
        if self.num_trials < 1:
            raise ValueError(f"num_trials must be >= 1, got {self.num_trials}.")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}.")
        states = np.asarray(self.states, dtype=float)
        observations = np.asarray(self.observations, dtype=float)
        if states.shape != (self.num_trials, self.horizon + 1):
            raise ValueError(
                f"states must have shape {(self.num_trials, self.horizon + 1)}, got {states.shape}."
            )
        if observations.shape != (self.num_trials, self.horizon):
            raise ValueError(
                f"observations must have shape {(self.num_trials, self.horizon)}, "
                f"got {observations.shape}."
            )
        if self.channel is MeasurementChannel.ONE_BIT and not np.all(np.abs(observations) == 1.0):
            raise ValueError("one-bit observations must take values in {-1, +1}.")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observations", observations)


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
        if not 64 <= self.num_points <= 100_000:
            raise ValueError(f"num_points must be in [64, 1e5], got {self.num_points}.")
        if not 2.0 <= self.half_width <= 32.0:
            raise ValueError(f"half_width must be in [2, 32], got {self.half_width}.")


@dataclass(frozen=True)
class KalmanResult:
    """Kalman filter output: per-trial means, shared analytic variances."""

    means: np.ndarray
    variances: np.ndarray
    predicted_variances: np.ndarray

    def __post_init__(self):
        if self.means.ndim != 2 or self.variances.shape != (self.means.shape[1],):
            raise ValueError("means must be (trials, K+1) with matching variances.")
        if self.predicted_variances.shape != self.variances.shape:
            raise ValueError("predicted_variances must match variances in shape.")

    @property
    def horizon(self) -> int:
        return self.means.shape[1] - 1


@dataclass(frozen=True)
class RtsResult:
    """Smoothed means and analytic variances.

    ``lag`` is the fixed smoothing lag; ``None`` marks fixed-interval
    output, where block ``l`` uses all measurements. Entry ``l`` of both
    arrays refers to state block ``l``.
    """

    lag: int | None
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        if self.means.ndim != 2 or self.variances.shape != (self.means.shape[1],):
            raise ValueError("means must be (trials, L) with matching variances.")


@dataclass(frozen=True)
class GridFilterResult:
    """Grid filter output; keeps the posteriors for the smoothing pass.

    ``pmfs[t, k]`` is the normalized filtering posterior of trial ``t`` at
    block ``k`` on ``axis``, shape ``(trials, K + 1, n)``, stored as float32
    to bound memory. The filter returns it as a transposed view of a
    block-major ``(K + 1, n, trials)`` array, which the smoother reads one
    block at a time. Means and variances are per trial because the one-bit
    posterior spread is data-dependent. ``operators`` holds the tiled
    transition operator and likelihood tables, which the smoother reuses.
    """

    axis: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    pmfs: np.ndarray
    batch: TrajectoryBatch
    operators: _GridOperators = field(repr=False)

    @property
    def horizon(self) -> int:
        return self.means.shape[1] - 1


@dataclass(frozen=True)
class GridSmootherResult:
    """Fixed-interval grid smoother output; block ``l`` uses all measurements."""

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
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}.")
    cap = horizon // 2
    if not model.is_stationary:
        return cap
    return min(math.ceil(10.0 / (1.0 - model.alpha**2)), cap)


def simulate(model: GaussMarkovModel, channel: MeasurementChannel, seed: int,
             num_trials: int, horizon: int) -> TrajectoryBatch:
    """Draw a reproducible batch of trajectories and measurements.

    Parameters
    ----------
    model : GaussMarkovModel
    channel : MeasurementChannel
    seed : int
        Root seed in ``[0, 2^64)``.
    num_trials : int
    horizon : int
        Number of measured blocks K >= 1.

    Returns
    -------
    TrajectoryBatch
        Identical inputs produce bit-identical batches.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}.")
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}.")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}.")
    children = np.random.SeedSequence(seed).spawn(num_trials)
    draws = np.empty((num_trials, 2 * horizon + 1))
    for i, child in enumerate(children):
        draws[i] = np.random.default_rng(child).standard_normal(2 * horizon + 1)
    theta0 = model.mu0 + model.sigma0 * draws[:, 0]
    noise_z = model.sigma_z * draws[:, 1 : horizon + 1]
    noise_eta = model.sigma_eta * draws[:, horizon + 1 :]
    # theta_k = alpha theta_{k-1} + z_k, one block (a contiguous row) at a
    # time over all trials. Each element gets one product and one sum, as in
    # lfilter's first-order IIR filter, so the bits match it. The copy back
    # to C order matters: the reductions downstream sum in memory order.
    states = np.empty((horizon + 1, num_trials))
    states[0] = theta0
    states[1:] = noise_z.T
    for k in range(1, horizon + 1):
        states[k] += model.alpha * states[k - 1]
    states = np.ascontiguousarray(states.T)
    raw = states[:, 1:] + noise_eta
    if channel is MeasurementChannel.ONE_BIT:
        observations = np.where(raw >= 0.0, 1.0, -1.0)
    else:
        observations = raw
    return TrajectoryBatch(seed=seed, num_trials=num_trials, horizon=horizon,
                           channel=channel, states=states, observations=observations)


def kalman_filter(batch: TrajectoryBatch, model: GaussMarkovModel) -> KalmanResult:
    """Exact conditional-mean filter for the unquantized channel.

    Parameters
    ----------
    batch : TrajectoryBatch
        Must carry unquantized observations.
    model : GaussMarkovModel

    Returns
    -------
    KalmanResult
        ``means[:, k]`` is ``E[theta_k | y_1..y_k]``; ``variances[k]`` the
        posterior variance (data-independent in the linear-Gaussian case);
        ``predicted_variances[k]`` the one-step prior variance of block k,
        with entry 0 equal to the prior variance.
    """
    if batch.channel is not MeasurementChannel.UNQUANTIZED:
        raise ValueError("kalman_filter requires an unquantized batch.")
    k_max = batch.horizon
    means = np.empty((batch.num_trials, k_max + 1))
    variances = np.empty(k_max + 1)
    predicted = np.empty(k_max + 1)
    means[:, 0] = model.mu0
    variances[0] = model.sigma0**2
    predicted[0] = model.sigma0**2
    r = model.sigma_eta**2
    for k in range(1, k_max + 1):
        p_pred = model.alpha**2 * variances[k - 1] + model.sigma_z**2
        gain = p_pred / (p_pred + r)
        m_pred = model.alpha * means[:, k - 1]
        means[:, k] = m_pred + gain * (batch.observations[:, k - 1] - m_pred)
        variances[k] = (1.0 - gain) * p_pred
        predicted[k] = p_pred
    return KalmanResult(means=means, variances=variances, predicted_variances=predicted)


def rts_smoother(filtered: KalmanResult, model: GaussMarkovModel,
                 lag: int | None = None) -> RtsResult:
    """Rauch-Tung-Striebel smoother, fixed-interval or fixed-lag.

    Parameters
    ----------
    filtered : KalmanResult
    model : GaussMarkovModel
    lag : int or None
        ``None`` runs the classic fixed-interval backward pass over all
        blocks. An integer ``delta`` returns, for each block ``l`` with
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
    m, p, p_pred = filtered.means, filtered.variances, filtered.predicted_variances
    # backward gain per block, C_l = alpha P_{l|l} / P_{l+1|l}
    gains = model.alpha * p[:-1] / p_pred[1:]
    if lag is None:
        means = np.empty_like(m)
        variances = np.empty_like(p)
        means[:, k_max] = m[:, k_max]
        variances[k_max] = p[k_max]
        for l in range(k_max - 1, -1, -1):
            means[:, l] = m[:, l] + gains[l] * (means[:, l + 1] - model.alpha * m[:, l])
            variances[l] = p[l] + gains[l] ** 2 * (variances[l + 1] - p_pred[l + 1])
        return RtsResult(lag=None, means=means, variances=variances)
    if not 0 <= lag <= k_max:
        raise ValueError(f"lag must be in [0, horizon], got {lag} with horizon {k_max}.")
    # Dynamic program over lag j: row j holds E[theta_l | y_1..l+j] for all
    # valid l, built from row j-1 shifted by one block.
    means_row = m.copy()
    var_row = p.copy()
    for j in range(1, lag + 1):
        width = k_max - j + 1
        c = gains[:width]
        means_row = m[:, :width] + c * (means_row[:, 1 : width + 1] - model.alpha * m[:, :width])
        var_row = p[:width] + c**2 * (var_row[1 : width + 1] - p_pred[1 : width + 1])
    return RtsResult(lag=lag, means=means_row, variances=var_row)


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
    """Mass of ``N(center, sd^2)`` in the width-``h`` cell around each point, elementwise."""
    lo = (points - 0.5 * h - centers) / sd
    hi = (points + 0.5 * h - centers) / sd
    return q_function(lo) - q_function(hi)


# Rows per dense tile of the grid operators. On the 1000-point default grid
# with 50 trials, tiles of 32 to 64 rows ran alike, 0.16-0.22 ms per product
# against 0.7-1.1 ms for CSR; 96 and 128 rows ran slower (2 vCPUs, one BLAS
# thread).
_TILE_ROWS = 48
# Groups of columns whose band entries the build evaluates together: a
# group holds 1/32 of the entries (at least one tile's columns), few enough
# to keep the build near the tiles' own memory, and a narrow band does not
# pay numpy's per-call cost once per tile.
_BUILD_GROUPS = 32


def _apply_tiles(tiles: tuple, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A @ x`` for a row-tiled operator ``A``: one BLAS product per tile."""
    for r0, r1, c0, c1, block in tiles:
        np.matmul(block, x[c0:c1], out=out[r0:r1])
    return out


@dataclass(frozen=True)
class _GridOperators:
    """The grid's tiled operators and likelihood tables, built once per grid.

    ``forward`` holds the row tiles of the transition operator ``T``, whose
    column j holds the exact cell masses of ``N(alpha * axis[j], sigma_z^2)``
    within 8.5 sigma_z of the center; ``adjoint`` holds those of ``T'``.
    Tile ``(r0, r1, c0, c1, block)`` is the dense block of rows ``r0..r1-1``
    over the columns ``c0..c1-1`` their entries span (none for rows without
    entries), filled from its own band entries only. ``sign_likes`` is the
    one-bit likelihood table, ``None`` for the unquantized channel. The
    filter, the smoother and every sub-batch of :func:`monte_carlo_mse`
    share one instance.
    """

    axis: np.ndarray
    forward: tuple
    adjoint: tuple
    sign_likes: np.ndarray | None
    inv_two_var: float

    def likelihood(self, obs_col: np.ndarray) -> np.ndarray:
        """Likelihood of each trial's observation at each grid point, shape (n, trials)."""
        if self.sign_likes is None:
            return np.exp(-self.inv_two_var * (self.axis[:, None] - obs_col[None, :]) ** 2)
        return self.sign_likes[:, (obs_col > 0.0).astype(np.intp)]


def _grid_operators(axis: np.ndarray, model: GaussMarkovModel,
                    channel: MeasurementChannel) -> _GridOperators:
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
        return c0, c1, np.cumsum(sizes) - sizes, np.zeros(int(sizes.sum()))

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
    # Each entry is evaluated once, for both operators, a group of columns
    # at a time.
    step = max(_TILE_ROWS, -(-n // _BUILD_GROUPS))
    for c0 in range(0, n, step):
        count = bottom[c0:c0 + step] - top[c0:c0 + step]
        cols = np.repeat(np.arange(c0, c0 + count.size), count)
        rows = np.arange(cols.size) + np.repeat(top[c0:c0 + step] - (np.cumsum(count) - count),
                                                count)
        values = _cell_masses(axis[rows], centers[cols], model.sigma_z, h)
        scatter(forward, rows, cols, values)
        scatter(adjoint, cols, rows, values)
    sign_likes = None
    if channel is MeasurementChannel.ONE_BIT:
        # column 0: P(y = -1 | theta), column 1: P(y = +1 | theta)
        sign_likes = np.stack((q_function(axis / model.sigma_eta),
                               q_function(-axis / model.sigma_eta)), axis=1)
    return _GridOperators(axis=axis, forward=tiles(forward), adjoint=tiles(adjoint),
                          sign_likes=sign_likes, inv_two_var=0.5 / model.sigma_eta**2)


def _pmf_moments(axis: np.ndarray, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = axis @ pmf
    var = (axis * axis) @ pmf - mean * mean
    return mean, np.maximum(var, 0.0)


def grid_filter(batch: TrajectoryBatch, model: GaussMarkovModel,
                grid: GridSpec = GridSpec(), *,
                operators: _GridOperators | None = None) -> GridFilterResult:
    """Discretized Bayes filter on a uniform point-mass grid.

    Each block applies the banded transition operator to the previous
    posterior, multiplies by the measurement likelihood, and renormalizes.
    Works for both channels; it is the reference estimator for the one-bit
    channel, where no closed-form posterior exists.

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
        operators = _grid_operators(_grid_axis(model, grid, batch.horizon), model, batch.channel)
    axis = operators.axis
    n, trials, k_max = axis.size, batch.num_trials, batch.horizon

    prior = _cell_masses(axis, model.mu0, model.sigma0, axis[1] - axis[0])
    total = prior.sum()
    if not total > 0.0:
        raise NumericalDegeneracyError("prior mass vanished on the grid; widen the grid.")
    pmf = np.repeat((prior / total)[:, None], trials, axis=1)
    posterior = np.empty_like(pmf)

    # block-major, so each block is one contiguous (n, trials) slab
    store = np.empty((k_max + 1, n, trials), dtype=np.float32)
    means = np.empty((trials, k_max + 1))
    variances = np.empty((trials, k_max + 1))
    store[0] = pmf
    means[:, 0], variances[:, 0] = _pmf_moments(axis, pmf)
    for k in range(1, k_max + 1):
        _apply_tiles(operators.forward, pmf, posterior)
        posterior *= operators.likelihood(batch.observations[:, k - 1])
        total = posterior.sum(axis=0)
        if not np.all(total > 0.0) or not np.all(np.isfinite(total)):
            raise NumericalDegeneracyError(
                f"posterior mass vanished at block {k}; widen the grid.", block=k
            )
        posterior /= total
        pmf, posterior = posterior, pmf
        store[k] = pmf
        means[:, k], variances[:, k] = _pmf_moments(axis, pmf)
    return GridFilterResult(axis=axis, means=means, variances=variances,
                            pmfs=store.transpose(2, 0, 1), batch=batch, operators=operators)


def grid_smoother(filtered: GridFilterResult) -> GridSmootherResult:
    """Fixed-interval smoother on the filter's grid.

    Runs the backward evidence pass ``beta_l = T' (like_{l+1} *
    beta_{l+1})`` and combines it with the stored filtering posteriors, so
    every block is conditioned on all measurements in the batch. (A
    fixed-lag variant would need one backward pass per block; the
    fixed-interval form costs one pass and bounds for it come from the
    smoothing recursion anchored at the final block.) It runs on the
    filter's grid with the filter's operators, so it needs no model.

    Returns
    -------
    GridSmootherResult

    Raises
    ------
    NumericalDegeneracyError
        If a smoothed posterior loses all mass.
    """
    axis = filtered.axis
    batch = filtered.batch
    operators = filtered.operators
    store = filtered.pmfs.transpose(1, 2, 0)
    trials, k_max = batch.num_trials, filtered.horizon

    means = np.empty((trials, k_max + 1))
    variances = np.empty((trials, k_max + 1))
    means[:, k_max] = filtered.means[:, k_max]
    variances[:, k_max] = filtered.variances[:, k_max]
    beta = np.ones((axis.size, trials))
    weighted = np.empty_like(beta)
    posterior = np.empty_like(beta)
    for l in range(k_max - 1, -1, -1):
        beta, weighted = weighted, beta
        weighted *= operators.likelihood(batch.observations[:, l])
        _apply_tiles(operators.adjoint, weighted, beta)
        peak = beta.max(axis=0)
        if not np.all(peak > 0.0) or not np.all(np.isfinite(peak)):
            raise NumericalDegeneracyError(
                f"backward evidence vanished at block {l}; widen the grid.", block=l
            )
        beta /= peak
        np.multiply(store[l], beta, out=posterior)
        total = posterior.sum(axis=0)
        if not np.all(total > 0.0):
            raise NumericalDegeneracyError(
                f"smoothed posterior mass vanished at block {l}; widen the grid.", block=l
            )
        posterior /= total
        means[:, l], variances[:, l] = _pmf_moments(axis, posterior)
    return GridSmootherResult(means=means, variances=variances)


def _trial_stats(errors_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over trials (axis 0) of squared errors."""
    trials = errors_sq.shape[0]
    mse = errors_sq.mean(axis=0)
    if trials < 2:
        return mse, np.full_like(mse, np.nan)
    se = errors_sq.std(axis=0, ddof=1) / math.sqrt(trials)
    return mse, se


def _lagged_gains(model: GaussMarkovModel, fims: np.ndarray, lag: int) -> np.ndarray:
    """Smoothing gains kappa(l | l + lag) for blocks 0..K-lag, all anchors at once.

    Step ``j`` (from ``lag`` down to 1) folds in block ``l + j`` for every
    ``l``, as the fixed-lag pass of :func:`rts_smoother` does.
    """
    width = fims.shape[0] - lag
    gains = np.zeros(width)
    for j in range(lag, 0, -1):
        gains = gain_step(model, gains, fims[j : j + width])
    return gains


# Bytes of float32 posteriors that one grid sub-batch may store: 50 trials
# on the default 1000-point grid at horizon 500, 100.2 MB.
_POSTERIOR_STORE_BYTES = 50 * 1000 * 501 * 4


def _sub_batch_trials(num_points: int, horizon: int) -> int:
    """Trials per grid sub-batch whose posterior store fits the budget, at least one."""
    return max(1, _POSTERIOR_STORE_BYTES // (4 * num_points * (horizon + 1)))


def monte_carlo_mse(model: GaussMarkovModel, channel: MeasurementChannel, estimator: str,
                    seed: int, num_trials: int, horizon: int, lag: int = 0,
                    grid: GridSpec = GridSpec(),
                    spec: QuadratureSpec = DEFAULT_QUADRATURE) -> MseReport:
    """Empirical filtering and smoothing MSE paired with their bounds.

    Parameters
    ----------
    model : GaussMarkovModel
    channel : MeasurementChannel
    estimator : str
        ``"kalman"`` (unquantized only; RTS smoothing at the given lag) or
        ``"grid"`` (either channel; fixed-interval smoothing).
    seed, num_trials, horizon : int
        Simulation parameters; see :func:`simulate`.
    lag : int
        Smoothing lag for the Kalman path; the steady region must fit,
        ``horizon > burn-in + lag``. The grid path requires 0.
    grid : GridSpec
        Grid geometry for the grid path, which runs its trials in
        sub-batches sized by :func:`_sub_batch_trials`; the split moves
        results by summation order only.
    spec : QuadratureSpec
        Quadrature for the bound values.

    Returns
    -------
    MseReport
    """
    if estimator not in ("kalman", "grid"):
        raise ValueError(f"estimator must be 'kalman' or 'grid', got {estimator!r}.")
    if estimator == "kalman" and channel is not MeasurementChannel.UNQUANTIZED:
        raise ValueError("the kalman estimator requires the unquantized channel.")
    if estimator == "grid" and lag != 0:
        raise ValueError(f"the grid estimator smooths over the whole interval; got lag {lag}.")
    burn = burn_in_blocks(model, horizon)
    if estimator == "kalman" and not horizon > burn + lag:
        raise ValueError(f"horizon {horizon} too short for burn-in {burn} plus lag {lag}.")
    batch = simulate(model, channel, seed, num_trials, horizon)
    states = batch.states

    fims = per_block_fims(model, channel, horizon, spec)
    filter_info = filtered_information(model, fims)
    steady_fim = steady_expected_fim(model, channel, spec)
    steady_j = quadratic_filter_root(model, steady_fim)

    if estimator == "kalman":
        filtered = kalman_filter(batch, model)
        smoothed = rts_smoother(filtered, model, lag)
        err_f = (filtered.means - states) ** 2
        err_s = (smoothed.means - states[:, : horizon - lag + 1]) ** 2
        smooth_bounds = 1.0 / (filter_info[: horizon - lag + 1] + _lagged_gains(model, fims, lag))
        steady_smooth_bound = 1.0 / (steady_j + steady_lag_gain(model, channel, lag, spec))
        smooth_lo, smooth_hi = burn, horizon - lag
        report_lag: int | None = lag
    else:
        smooth_bounds = 1.0 / (filter_info + smoothing_gain(model, fims, horizon))
        steady_smooth_bound = 1.0 / (steady_j + quadratic_gain_root(model, steady_fim))
        err_f = np.empty_like(states)
        err_s = np.empty_like(states)
        operators = _grid_operators(_grid_axis(model, grid, horizon), model, channel)
        step = _sub_batch_trials(grid.num_points, horizon)
        for start in range(0, num_trials, step):
            trials = slice(start, start + step)
            sub = TrajectoryBatch(seed=seed, num_trials=len(states[trials]), horizon=horizon,
                                  channel=channel, states=states[trials],
                                  observations=batch.observations[trials])
            gf = grid_filter(sub, model, grid, operators=operators)
            gs = grid_smoother(gf)
            err_f[trials] = (gf.means - sub.states) ** 2
            err_s[trials] = (gs.means - sub.states) ** 2
            # free this sub-batch's posteriors before the next one allocates its own
            del gf, gs
        smooth_lo, smooth_hi = burn, max(burn, horizon - burn // 2)
        report_lag = None

    filter_mse, filter_se = _trial_stats(err_f)
    smooth_mse, smooth_se = _trial_stats(err_s)
    steady_f = err_f[:, burn : horizon + 1].mean(axis=1)  # one steady-region MSE per trial
    steady_s = err_s[:, smooth_lo : smooth_hi + 1].mean(axis=1)
    steady_f_mse, steady_f_se = map(float, _trial_stats(steady_f))
    steady_s_mse, steady_s_se = map(float, _trial_stats(steady_s))
    return MseReport(
        channel=channel,
        estimator=estimator,
        seed=seed,
        num_trials=num_trials,
        horizon=horizon,
        lag=report_lag,
        burn_in=burn,
        filter_mse=filter_mse,
        filter_se=filter_se,
        filter_bound=1.0 / filter_info,
        smooth_mse=smooth_mse,
        smooth_se=smooth_se,
        smooth_bound=smooth_bounds,
        steady_filter_mse=steady_f_mse,
        steady_filter_se=steady_f_se,
        steady_filter_bound=1.0 / steady_j,
        steady_smooth_mse=steady_s_mse,
        steady_smooth_se=steady_s_se,
        steady_smooth_bound=steady_smooth_bound,
    )
