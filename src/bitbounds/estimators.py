"""Reference Bayesian estimators and the Monte Carlo bound-validation harness.

The bounds computed by the information recursions are only evidence if an
estimator can be shown to respect (and, where theory says so, attain) them.
This module provides:

* an exact Kalman filter and Rauch-Tung-Striebel smoother for the
  unquantized channel, where the conditional mean is available in closed
  form and attains the bounds;
* a grid (point-mass) filter and fixed-interval smoother that approximate
  the conditional mean for the one-bit channel, where no closed form
  exists;
* a seeded trajectory simulator and a Monte Carlo harness that compares
  empirical MSE per block against the matching bound values.

Randomness contract: trial ``i`` draws from ``default_rng`` seeded with the
``i``-th child of ``numpy.random.SeedSequence(seed)``; within a trial a
single standard-normal vector of length ``2 * horizon + 1`` is drawn and
split as ``[theta_0 draw, z_1..z_K, eta_1..eta_K]``. Batches are therefore
bit-reproducible from ``seed`` alone, and every reduction below runs in
fixed trial order so repeated runs agree to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal, sparse

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
    block ``k`` on ``axis`` (stored as float32 to bound memory). Means and
    variances are per trial because the one-bit posterior spread is
    data-dependent.
    """

    axis: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    pmfs: np.ndarray
    batch: TrajectoryBatch

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
    # theta_k = alpha theta_{k-1} + z_k as an IIR filter seeded by theta_0
    later, _ = signal.lfilter(
        [1.0], [1.0, -model.alpha], noise_z, axis=1,
        zi=(model.alpha * theta0)[:, None],
    )
    states = np.concatenate([theta0[:, None], later], axis=1)
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


def _cell_masses(axis: np.ndarray, centers: np.ndarray, sd: float) -> np.ndarray:
    """Probability mass of N(center, sd^2) in each grid cell, one column per center."""
    h = axis[1] - axis[0]
    lo = (axis[:, None] - 0.5 * h - centers[None, :]) / sd
    hi = (axis[:, None] + 0.5 * h - centers[None, :]) / sd
    return q_function(lo) - q_function(hi)


def _transition_matrix(axis: np.ndarray, model: GaussMarkovModel) -> sparse.csr_array:
    """Banded column-stochastic transition operator on the grid.

    Column j holds the cell masses of ``N(alpha * axis[j], sigma_z^2)``,
    truncated beyond 8.5 sigma_z of the center. Exact cell masses (CDF
    differences) keep the operator well defined even when sigma_z is
    smaller than the grid step.
    """
    n = axis.size
    h = axis[1] - axis[0]
    centers = model.alpha * axis
    halfband = int(np.ceil(8.5 * model.sigma_z / h)) + 1
    offsets = np.arange(-halfband, halfband + 1)
    base = np.rint((centers - axis[0]) / h).astype(int)
    rows = base[:, None] + offsets[None, :]
    cols = np.broadcast_to(np.arange(n)[:, None], rows.shape)
    valid = (rows >= 0) & (rows < n)
    rows_v = rows[valid]
    cols_v = cols[valid]
    lo = (axis[rows_v] - 0.5 * h - centers[cols_v]) / model.sigma_z
    hi = (axis[rows_v] + 0.5 * h - centers[cols_v]) / model.sigma_z
    data = q_function(lo) - q_function(hi)
    return sparse.csr_array((data, (rows_v, cols_v)), shape=(n, n))


def _pmf_moments(axis: np.ndarray, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = axis @ pmf
    var = (axis * axis) @ pmf - mean * mean
    return mean, np.maximum(var, 0.0)


def _likelihood_columns(axis: np.ndarray, model: GaussMarkovModel,
                        channel: MeasurementChannel):
    """Observation-to-likelihood map as a closure over precomputed tables."""
    if channel is MeasurementChannel.ONE_BIT:
        like_plus = q_function(-axis / model.sigma_eta)
        like_minus = q_function(axis / model.sigma_eta)

        def likes(obs_col: np.ndarray) -> np.ndarray:
            return np.where(obs_col[None, :] > 0.0, like_plus[:, None], like_minus[:, None])
    else:
        inv_two_var = 0.5 / model.sigma_eta**2

        def likes(obs_col: np.ndarray) -> np.ndarray:
            return np.exp(-inv_two_var * (axis[:, None] - obs_col[None, :]) ** 2)

    return likes


def grid_filter(batch: TrajectoryBatch, model: GaussMarkovModel,
                grid: GridSpec = GridSpec()) -> GridFilterResult:
    """Discretized Bayes filter on a uniform point-mass grid.

    Each block applies the banded transition operator to the previous
    posterior, multiplies by the measurement likelihood, and renormalizes.
    Works for both channels; it is the reference estimator for the one-bit
    channel, where no closed-form posterior exists.

    Returns
    -------
    GridFilterResult

    Raises
    ------
    NumericalDegeneracyError
        If a posterior loses all mass (state escaped the grid); widen
        ``GridSpec.half_width`` or add points.
    """
    axis = _grid_axis(model, grid, batch.horizon)
    transition = _transition_matrix(axis, model)
    likes = _likelihood_columns(axis, model, batch.channel)
    n, trials, k_max = axis.size, batch.num_trials, batch.horizon

    prior = _cell_masses(axis, np.array([model.mu0]), model.sigma0)[:, 0]
    total = prior.sum()
    if not total > 0.0:
        raise NumericalDegeneracyError("prior mass vanished on the grid; widen the grid.")
    pmf = np.repeat((prior / total)[:, None], trials, axis=1)

    pmfs = np.empty((trials, k_max + 1, n), dtype=np.float32)
    means = np.empty((trials, k_max + 1))
    variances = np.empty((trials, k_max + 1))
    pmfs[:, 0] = pmf.T
    means[:, 0], variances[:, 0] = _pmf_moments(axis, pmf)
    for k in range(1, k_max + 1):
        predicted = transition @ pmf
        posterior = predicted * likes(batch.observations[:, k - 1])
        total = posterior.sum(axis=0)
        if not np.all(total > 0.0) or not np.all(np.isfinite(total)):
            raise NumericalDegeneracyError(
                f"posterior mass vanished at block {k}; widen the grid.", block=k
            )
        pmf = posterior / total
        pmfs[:, k] = pmf.T
        means[:, k], variances[:, k] = _pmf_moments(axis, pmf)
    return GridFilterResult(axis=axis, means=means, variances=variances,
                            pmfs=pmfs, batch=batch)


def grid_smoother(filtered: GridFilterResult, model: GaussMarkovModel) -> GridSmootherResult:
    """Fixed-interval smoother on the filter's grid.

    Runs the backward evidence pass ``beta_l = T' (like_{l+1} *
    beta_{l+1})`` and combines it with the stored filtering posteriors, so
    every block is conditioned on all measurements in the batch. (A
    fixed-lag variant would need one backward pass per block; the
    fixed-interval form costs one pass and bounds for it come from the
    smoothing recursion anchored at the final block.)

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
    transition = _transition_matrix(axis, model)
    likes = _likelihood_columns(axis, model, batch.channel)
    trials, k_max = batch.num_trials, filtered.horizon

    means = np.empty((trials, k_max + 1))
    variances = np.empty((trials, k_max + 1))
    means[:, k_max] = filtered.means[:, k_max]
    variances[:, k_max] = filtered.variances[:, k_max]
    beta = np.ones((axis.size, trials))
    for l in range(k_max - 1, -1, -1):
        weighted = likes(batch.observations[:, l]) * beta
        beta = transition.T @ weighted
        peak = beta.max(axis=0)
        if not np.all(peak > 0.0) or not np.all(np.isfinite(peak)):
            raise NumericalDegeneracyError(
                f"backward evidence vanished at block {l}; widen the grid.", block=l
            )
        beta = beta / peak
        posterior = filtered.pmfs[:, l].T.astype(float) * beta
        total = posterior.sum(axis=0)
        if not np.all(total > 0.0):
            raise NumericalDegeneracyError(
                f"smoothed posterior mass vanished at block {l}; widen the grid.", block=l
            )
        posterior /= total
        means[:, l], variances[:, l] = _pmf_moments(axis, posterior)
    return GridSmootherResult(means=means, variances=variances)


def _per_block_stats(errors_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over trials of per-block squared errors."""
    trials = errors_sq.shape[0]
    mse = errors_sq.mean(axis=0)
    if trials < 2:
        return mse, np.full_like(mse, np.nan)
    se = errors_sq.std(axis=0, ddof=1) / math.sqrt(trials)
    return mse, se


def _steady_stats(per_trial: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of per-trial steady-region aggregates."""
    trials = per_trial.shape[0]
    mean = float(per_trial.mean())
    if trials < 2:
        return mean, float("nan")
    return mean, float(per_trial.std(ddof=1) / math.sqrt(trials))


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


def monte_carlo_mse(model: GaussMarkovModel, channel: MeasurementChannel, estimator: str,
                    seed: int, num_trials: int, horizon: int, lag: int = 0,
                    grid: GridSpec = GridSpec(), batch_size: int = 50,
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
        Grid geometry for the grid path.
    batch_size : int
        Trials per grid sub-batch, at least 1 (memory control only; results
        are independent of it).
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
    if not batch_size >= 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}.")
    burn = burn_in_blocks(model, horizon)
    batch = simulate(model, channel, seed, num_trials, horizon)
    states = batch.states

    fims = per_block_fims(model, channel, horizon, spec)
    filter_info = filtered_information(model, fims)
    steady_fim = steady_expected_fim(model, channel, spec)
    steady_j = quadratic_filter_root(model, steady_fim)

    if estimator == "kalman":
        if not horizon > burn + lag:
            raise ValueError(
                f"horizon {horizon} too short for burn-in {burn} plus lag {lag}."
            )
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
        for start in range(0, num_trials, batch_size):
            stop = min(start + batch_size, num_trials)
            sub = TrajectoryBatch(
                seed=seed, num_trials=stop - start, horizon=horizon, channel=channel,
                states=states[start:stop], observations=batch.observations[start:stop],
            )
            gf = grid_filter(sub, model, grid)
            gs = grid_smoother(gf, model)
            err_f[start:stop] = (gf.means - sub.states) ** 2
            err_s[start:stop] = (gs.means - sub.states) ** 2
        smooth_lo, smooth_hi = burn, max(burn, horizon - burn // 2)
        report_lag = None

    filter_mse, filter_se = _per_block_stats(err_f)
    smooth_mse, smooth_se = _per_block_stats(err_s)
    steady_f_mse, steady_f_se = _steady_stats(err_f[:, burn : horizon + 1].mean(axis=1))
    steady_s_mse, steady_s_se = _steady_stats(err_s[:, smooth_lo : smooth_hi + 1].mean(axis=1))
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
