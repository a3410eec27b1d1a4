"""Reference estimators and the Monte-Carlo bound comparison."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bitbounds import (
    GaussMarkovModel,
    GridSpec,
    MeasurementChannel,
    MseReport,
    NumericalDegeneracyError,
    TrajectoryBatch,
    burn_in_blocks,
    filter_bim_sequence,
    grid_filter,
    grid_smoother,
    kalman_filter,
    kalman_steady_variance,
    model_for_snr,
    monte_carlo_mse,
    q_function,
    quadratic_filter_root,
    quadratic_gain_root,
    rts_smoother,
    rts_steady_variance,
    simulate,
    smooth_bim_compact,
    state_moments,
    steady_expected_fim,
    steady_lag_gain,
)
from bitbounds import estimators

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# (alpha, snr_db) where the oracle iterations below converge within their cap,
# up to the stiff corner alpha = 1 - 1e-5 at -40 dB.
ITERABLE_MODELS = ((0.0, 0.0), (0.5, 10.0), (0.9, -5.0), (0.95, -5.0),
                   (0.999, -10.0), (0.999, 10.0), (1.0 - 1e-5, -40.0))


_TOLERANCE, _MAX_ITERATIONS = 1e-14, 1_000_000


def _model() -> GaussMarkovModel:
    return GaussMarkovModel(alpha=0.9, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0)


def _iterated_riccati(model: GaussMarkovModel) -> float:
    """Steady Kalman variance by iterating the Riccati recursion from sigma0^2."""
    r = model.sigma_eta**2
    p = model.sigma0**2
    for _ in range(_MAX_ITERATIONS):
        p_pred = model.alpha**2 * p + model.sigma_z**2
        updated = p_pred * r / (p_pred + r)
        if abs(updated - p) <= _TOLERANCE * updated:
            return updated
        p = updated
    raise AssertionError("Riccati iteration did not converge.")


def _iterated_rts(model: GaussMarkovModel) -> float:
    """Long-lag RTS variance by iterating the backward variance step from the filter."""
    p = _iterated_riccati(model)
    p_pred = model.alpha**2 * p + model.sigma_z**2
    c = model.alpha * p / p_pred
    v = p
    for _ in range(_MAX_ITERATIONS):
        updated = p + c**2 * (v - p_pred)
        if abs(updated - v) <= _TOLERANCE * updated:
            return updated
        v = updated
    raise AssertionError("smoothed-variance iteration did not converge.")


def _lagged_rts_variance(model: GaussMarkovModel, lag: int) -> float:
    """Steady variance of a lag-``lag`` RTS smoother, in covariance form.

    ``lag`` backward variance steps ``V <- P + c^2 (V - P_pred)`` from the
    steady filter variance ``P``, with the steady gain ``c = alpha P / P_pred``:
    an oracle for the information-form ``steady_lag_gain``.
    """
    p = kalman_steady_variance(model)
    p_pred = model.alpha**2 * p + model.sigma_z**2
    c = model.alpha * p / p_pred
    v = p
    for _ in range(lag):
        v = p + c**2 * (v - p_pred)
    return v


def _column_kalman(batch, model: GaussMarkovModel) -> np.ndarray:
    """Reference Kalman means: the forward loop on (trials, K+1) columns."""
    means = np.empty((batch.num_trials, batch.horizon + 1))
    means[:, 0] = model.mu0
    p = model.sigma0**2
    for k in range(1, batch.horizon + 1):
        p_pred = model.alpha**2 * p + model.sigma_z**2
        gain = p_pred / (p_pred + model.sigma_eta**2)
        m_pred = model.alpha * means[:, k - 1]
        means[:, k] = m_pred + gain * (batch.observations[:, k - 1] - m_pred)
        p = (1.0 - gain) * p_pred
    return means


def _prior_variances(filtered, model: GaussMarkovModel) -> np.ndarray:
    """``P_{l+1|l}`` for ``l = 0..K-1``, one Python float at a time, as the filter's recursion."""
    a2, q = model.alpha**2, model.sigma_z**2
    return np.array([a2 * p + q for p in filtered.variances[:-1].tolist()])


def _lag_dp_rts(filtered, model: GaussMarkovModel, lag: int):
    """Reference fixed-lag RTS: a dynamic program over the lag, O(lag K).

    Row ``j`` holds ``E[theta_l | y_1..y_{l+j}]`` for every valid ``l``, built
    from row ``j - 1`` shifted by one block. Returns ``(means, variances)``.
    """
    m, p, p_pred = filtered.means, filtered.variances, _prior_variances(filtered, model)
    gains = model.alpha * p[:-1] / p_pred
    means_row, var_row = m.copy(), p.copy()
    for j in range(1, lag + 1):
        width = filtered.horizon - j + 1
        c = gains[:width]
        means_row = m[:, :width] + c * (means_row[:, 1 : width + 1] - model.alpha * m[:, :width])
        var_row = p[:width] + c**2 * (var_row[1 : width + 1] - p_pred[:width])
    return means_row, var_row


def _whole_array_rts(filtered, model: GaussMarkovModel, lag: int | None):
    """Reference one-pass RTS: the backward pass on whole block-major arrays.

    The same arithmetic as ``rts_smoother``, element for element, on a
    ``(K + 1, trials)`` copy of the filtered means and a whole array of
    corrections. Returns ``(means, variances)``.
    """
    k_max = filtered.horizon
    m, p, p_pred = filtered.means, filtered.variances, _prior_variances(filtered, model)
    gains = model.alpha * p[:-1] / p_pred
    width = k_max + 1 if lag is None else k_max - lag + 1
    mt = np.ascontiguousarray(m.T)
    tail = np.empty_like(mt)
    np.multiply(mt[:-1], -model.alpha, out=tail[:-1])
    tail[:-1] += mt[1:]
    tail[k_max] = 0.0
    c = gains.tolist()
    steps = (p[1:] - p_pred).tolist()
    spread = [0.0] * (k_max + 1)
    for l in range(k_max - 1, -1, -1):
        row = tail[l]
        row += tail[l + 1]
        row *= c[l]
        spread[l] = c[l] * c[l] * (steps[l] + spread[l + 1])
    spread = np.array(spread)
    correction = tail
    if lag is not None:
        window = np.ones(width)
        for j in range(lag):
            window *= gains[j : j + width]
        correction = np.multiply(window[:, None], tail[lag:])
        np.subtract(tail[:width], correction, out=correction)
        spread = spread[:width] - window * window * spread[lag:]
    return m[:, :width] + correction.T, p[:width] + spread


def _lfilter_batch(model, seed, num_trials, horizon):
    """Reference ``simulate``: the state recursion through scipy's IIR filter."""
    from scipy import signal

    draws = np.random.default_rng(seed).standard_normal(num_trials * (1 + 2 * horizon))
    theta0 = model.mu0 + model.sigma0 * draws[:num_trials]
    blocks = draws[num_trials:].reshape(horizon, 2, num_trials)  # z_k, then eta_k
    later, _ = signal.lfilter([1.0], [1.0, -model.alpha], model.sigma_z * blocks[:, 0],
                              axis=0, zi=(model.alpha * theta0)[None, :])
    states = np.concatenate([theta0[:, None], later.T], axis=1)
    return states, states[:, 1:] + model.sigma_eta * blocks[:, 1].T


def _transition_matrix(axis: np.ndarray, model: GaussMarkovModel):
    """Reference grid operator T as one ``scipy.sparse`` CSR matrix.

    Column j holds the cell masses of ``N(alpha * axis[j], sigma_z^2)``,
    truncated beyond 8.5 sigma_z of the center: the same entries as the
    package's row tiles, summed in CSR order.
    """
    from scipy import sparse

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


def _csr_apply(matrix, x, out):
    """Stands in for ``estimators._apply_tiles`` when the operators are CSR matrices."""
    out[...] = matrix @ x
    return out


def _oracle_likelihood(ops, obs_col: np.ndarray, sigma_eta: float | None = None) -> np.ndarray:
    """Likelihood of one block's observations, shape (n, trials), as a new float64 array.

    The one-bit table's column of each observation's sign (``y >= 0`` is
    +1), or, given ``sigma_eta``, the Gaussian density of an unquantized
    observation up to a constant: the likelihood of an ideal converter.
    """
    if sigma_eta is None:
        return ops.sign_likes[:, (obs_col >= 0.0).astype(np.intp)]
    return np.exp(-(0.5 / sigma_eta**2) * (ops.axis[:, None] - obs_col[None, :]) ** 2)


@pytest.fixture
def gaussian_grid(monkeypatch):
    """``gaussian_grid(model)`` makes the grid the receiver of an ideal converter.

    It patches ``_GridOperators.likelihood`` with the Gaussian density of
    :func:`_oracle_likelihood`, rounded once to float32, flushed below the
    floor and scaled, and returns the ``sigma_eta`` that the two-pass
    oracles take. The package's grid reads only signs; this second form,
    whose exact filter is Kalman's, lets the grid be checked against
    Kalman/RTS and under a likelihood that sharpens with the SNR.
    """
    def patch(model: GaussMarkovModel) -> float:
        def likelihood(self, observation, out, scale):
            np.copyto(out, _oracle_likelihood(self, observation, model.sigma_eta),
                      casting="same_kind")
            out[out < estimators._FLOOR] = 0.0
            out *= scale
            return out

        monkeypatch.setattr(estimators._GridOperators, "likelihood", likelihood)
        return model.sigma_eta

    return patch


def _oracle_moments(axis: np.ndarray, pmf: np.ndarray):
    mean = axis @ pmf
    var = (axis * axis) @ pmf - mean * mean
    return mean, np.maximum(var, 0.0)


def _float64_operators(axis: np.ndarray, model: GaussMarkovModel):
    """The grid operators as the package builds them, but in float64 and unflushed:
    the CSR matrix ``T`` and its transpose, and the one-bit table as computed."""
    matrix = _transition_matrix(axis, model)
    sign_likes = np.stack((q_function(axis / model.sigma_eta),
                           q_function(-axis / model.sigma_eta)), axis=1)
    return dataclasses.replace(estimators._grid_operators(axis, model), forward=matrix,
                               adjoint=matrix.T.tocsr(), sign_likes=sign_likes)


def _two_pass_filter(batch, model, grid=GridSpec(), sigma_eta=None):
    """Reference ``grid_filter``, in float64 throughout and never flushed: per
    block, normalise by the column sums, then take each moment from the
    normalised posterior in a pass of its own. Its ``pmfs`` are float64.
    ``sigma_eta`` selects the Gaussian likelihood (see :func:`_oracle_likelihood`)."""
    ops = _float64_operators(estimators._grid_axis(model, grid, batch.horizon), model)
    axis = ops.axis
    prior = estimators._cell_masses(axis, model.mu0, model.sigma0, axis[1] - axis[0])
    pmf = np.repeat((prior / prior.sum())[:, None], batch.num_trials, axis=1)
    store = np.empty((batch.horizon + 1, axis.size, batch.num_trials))
    means = np.empty((batch.num_trials, batch.horizon + 1))
    variances = np.empty_like(means)
    store[0] = pmf
    means[:, 0], variances[:, 0] = _oracle_moments(axis, pmf)
    for k in range(1, batch.horizon + 1):
        posterior = ops.forward @ pmf
        posterior *= _oracle_likelihood(ops, batch.observations[:, k - 1], sigma_eta)
        pmf = posterior / posterior.sum(axis=0)
        store[k] = pmf
        means[:, k], variances[:, k] = _oracle_moments(axis, pmf)
    return estimators.GridFilterResult(axis=axis, means=means, variances=variances,
                                       pmfs=store.transpose(2, 0, 1),
                                       totals=np.ones((batch.horizon + 1, batch.num_trials)),
                                       batch=batch, operators=ops)


def _two_pass_smoother(filtered, sigma_eta=None):
    """Reference ``grid_smoother``: normalises each smoothed posterior before its moments.

    In float64 and never flushed when ``filtered`` comes from :func:`_two_pass_filter`,
    with the likelihood that ``sigma_eta`` selects there.
    """
    ops, batch = filtered.operators, filtered.batch
    store = filtered.pmfs.transpose(1, 2, 0)
    k_max = filtered.horizon
    means = filtered.means.copy()
    variances = filtered.variances.copy()
    beta = np.ones((filtered.axis.size, batch.num_trials))
    for l in range(k_max - 1, -1, -1):
        beta = ops.adjoint @ (beta * _oracle_likelihood(ops, batch.observations[:, l], sigma_eta))
        beta /= beta.max(axis=0)
        posterior = store[l] * beta
        posterior /= posterior.sum(axis=0)
        means[:, l], variances[:, l] = _oracle_moments(filtered.axis, posterior)
    return estimators.GridSmootherResult(means=means, variances=variances)


def _replay_work(filtered):
    """Work buffers for ``estimators._replay``: lik, mask, inverse, floor."""
    shape = (filtered.axis.size, filtered.batch.num_trials)
    trials = shape[1]
    return (np.empty(shape, dtype=np.float32), np.empty(shape, dtype=bool),
            np.empty(trials, dtype=np.float32), np.empty(trials, dtype=np.float32))


def _replayed(filtered) -> np.ndarray:
    """Every block's filtered posterior, (K + 1, n, trials) float32: each segment
    replayed from its checkpoint one block past its end, into the next
    checkpoint's block (or block K)."""
    k_max = filtered.horizon
    stride = estimators._checkpoint_stride(k_max)
    out = np.empty((k_max + 1, filtered.axis.size, filtered.batch.num_trials),
                   dtype=np.float32)
    for start in range(0, k_max + 1, stride):
        estimators._replay(filtered, start, out[start:min(start + stride, k_max) + 1],
                           *_replay_work(filtered))
    return out


def _assert_moments_match(result, oracle, rtol: float):
    """Variances to ``rtol``; means to ``rtol`` of the smallest posterior SD (some are ~0)."""
    assert_allclose(result.variances, oracle.variances, rtol=rtol, atol=0.0)
    assert_allclose(result.means, oracle.means, rtol=0.0,
                    atol=rtol * np.sqrt(oracle.variances.min()))


class TestSimulate:
    @pytest.mark.parametrize("alpha", (0.0, -0.5, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0))
    def test_matches_the_iir_filter_bit_for_bit(self, alpha):
        model = GaussMarkovModel(alpha=alpha, sigma_z=0.7, sigma_eta=1.3, sigma0=1.1, mu0=0.2)
        for num_trials, horizon in ((1, 1), (1, 30), (7, 64), (300, 500)):
            batch = simulate(model, 20260814, num_trials, horizon)
            states, observations = _lfilter_batch(model, 20260814, num_trials, horizon)
            assert np.array_equal(batch.states, states)
            assert np.array_equal(batch.observations, observations)
            # Downstream reductions sum in memory order, so the layout is part
            # of the result: the block-major batch moved the Kalman report's
            # per-block means and standard errors over trials, which now sum
            # down contiguous columns, by at most 3.7e-15 relative.
            assert batch.states.flags.f_contiguous
            assert batch.observations.flags.f_contiguous

    def test_deterministic_for_fixed_seed(self):
        a = simulate(_model(), 7, 4, 20)
        b = simulate(_model(), 7, 4, 20)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)

    def test_marginal_moments_match_analytic(self):
        m = _model()
        batch = simulate(m, 11, 200_000, 3)
        for k in range(4):
            mom = state_moments(m, k)
            col = batch.states[:, k]
            assert_allclose(col.mean(), mom.mean, atol=4.0 * math.sqrt(mom.variance / 200_000))
            assert_allclose(col.var(), mom.variance, rtol=0.02)

    def test_seed_changes_data(self):
        a = simulate(_model(), 7, 4, 20)
        b = simulate(_model(), 8, 4, 20)
        assert not np.array_equal(a.states, b.states)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate(_model(), -1, 4, 20)
        with pytest.raises(ValueError):
            simulate(_model(), 7, 0, 20)
        with pytest.raises(ValueError):
            simulate(_model(), 7, 4, 0)
        # a float is no count, even a whole one: the error names the argument
        for args, name in (((7.0, 4, 20), "seed"), ((7, 4.0, 20), "num_trials"),
                           ((7, 4, 20.0), "horizon")):
            with pytest.raises(TypeError, match=name):
                simulate(_model(), *args)
        numpy_ints = simulate(_model(), np.uint64(7), np.int64(4), np.int32(20))
        assert np.array_equal(numpy_ints.states, simulate(_model(), 7, 4, 20).states)


class TestTrajectoryBatch:
    def test_trials_and_horizon_come_from_the_shapes(self):
        batch = TrajectoryBatch(np.zeros((3, 6)), np.zeros((3, 5)))
        assert (batch.num_trials, batch.horizon) == (3, 5)
        batch = simulate(_model(), 7, 4, 20)
        assert (batch.num_trials, batch.horizon) == (4, 20)

    @pytest.mark.parametrize("states_shape,observations_shape", [
        ((3, 6), (3, 6)),  # one observation per state: block 0 has none
        ((3, 6), (3, 4)),
        ((3, 6), (2, 5)),
        ((3, 6), (5,)),
        ((6,), (5,)),  # no trial axis
        ((0, 6), (0, 5)),  # no trial
        ((3, 1), (3, 0)),  # no measured block
    ])
    def test_rejects_mismatched_shapes(self, states_shape, observations_shape):
        with pytest.raises(ValueError):
            TrajectoryBatch(np.zeros(states_shape), np.zeros(observations_shape))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_unquantized_observations_must_be_finite(self, value):
        # The grid reads signs, and a NaN would read as -1 without a word.
        observations = np.ones((2, 4))
        observations[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            TrajectoryBatch(np.zeros((2, 5)), observations)

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 0.5, -2.0, 1.0 + 2.0**-52, -1e300])
    def test_a_finite_observation_is_kept_and_read_as_its_sign(self, value):
        # No observation is converted or refused for not being +-1: the
        # batch keeps what was drawn, and the grid reads y >= 0 as +1.
        m = model_for_snr(0.9, 0.0)
        drawn = simulate(m, 5, 2, 4)
        observations = drawn.observations.copy()
        observations[1, 2] = value
        batch = TrajectoryBatch(drawn.states, observations)
        assert np.array_equal(batch.observations, observations)
        assert np.signbit(batch.observations[1, 2]) == np.signbit(value)
        signs = TrajectoryBatch(drawn.states, np.where(observations >= 0.0, 1.0, -1.0))
        grid = GridSpec(num_points=200)
        got, twin = grid_filter(batch, m, grid), grid_filter(signs, m, grid)
        for name in ("means", "variances", "pmfs", "totals"):
            assert np.array_equal(getattr(got, name), getattr(twin, name)), name


    def test_a_c_ordered_batch_is_stored_block_major(self):
        # The layout is the batch's, not its caller's: C-ordered arrays are
        # copied block-major, so every estimator reads the same memory order
        # and gives the results of the drawn batch bit for bit.
        m = model_for_snr(0.9, 0.0)
        drawn = simulate(m, 5, 6, 40)
        batch = TrajectoryBatch(np.ascontiguousarray(drawn.states),
                                np.ascontiguousarray(drawn.observations))
        assert batch.states.flags.f_contiguous and batch.observations.flags.f_contiguous
        filtered, twin = kalman_filter(batch, m), kalman_filter(drawn, m)
        assert np.array_equal(filtered.means, twin.means)
        for lag in (None, 0, 1, 40):
            assert np.array_equal(rts_smoother(filtered, m, lag).means,
                                  rts_smoother(twin, m, lag).means), lag
        grid = GridSpec(num_points=200)
        got, want = grid_filter(batch, m, grid), grid_filter(drawn, m, grid)
        for name in ("means", "variances", "pmfs", "totals"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        smoothed, smoothed_twin = grid_smoother(got), grid_smoother(want)
        for name in ("means", "variances"):
            assert np.array_equal(getattr(smoothed, name), getattr(smoothed_twin, name)), name
        # every estimator writes its means block-major too, one row per block
        outputs = [filtered.means, rts_smoother(filtered, m, None).means,
                   rts_smoother(filtered, m, 1).means, got.means, got.variances,
                   smoothed.means, smoothed.variances]
        for i, output in enumerate(outputs):
            assert output.flags.f_contiguous, i


class TestKalmanFilter:
    def test_variances_invert_filter_information(self):
        # Linear-Gaussian duality: posterior variance is the inverse of the
        # recursive filtering information at every block.
        m = _model()
        batch = simulate(m, 5, 2, 30)
        res = kalman_filter(batch, m)
        bounds = filter_bim_sequence(m, MeasurementChannel.UNQUANTIZED, 30).variances
        assert_allclose(res.variances, bounds, rtol=1e-12)

    def test_steady_variance_hits_golden_ratio(self):
        m = GaussMarkovModel(alpha=1.0, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
        assert_allclose(kalman_steady_variance(m) * GOLDEN, 1.0, rtol=1e-15)
        assert_allclose(_iterated_riccati(m) * GOLDEN, 1.0, rtol=1e-9)

    @pytest.mark.parametrize("alpha,snr_db", ITERABLE_MODELS)
    def test_steady_variance_matches_riccati_iteration(self, alpha, snr_db):
        m = model_for_snr(alpha, snr_db)
        assert_allclose(kalman_steady_variance(m), _iterated_riccati(m), rtol=1e-9)

    @pytest.mark.parametrize("alpha,snr_db", ((0.0, 0.0), (0.9, -5.0), (0.999, 20.0)))
    def test_matches_the_column_loop_bit_for_bit(self, alpha, snr_db):
        m = model_for_snr(alpha, snr_db)
        batch = simulate(m, 11, 7, 40)
        res = kalman_filter(batch, m)
        assert res.means.flags.f_contiguous
        assert np.array_equal(res.means, _column_kalman(batch, m))

    def test_a_batch_of_signs_is_a_plain_batch(self):
        # A +-1 sequence is a finite measurement like any other: the filter
        # reads it as y_k, with no channel to refuse it by.
        m = model_for_snr(0.9, 0.0)
        drawn = simulate(m, 5, 3, 20)
        batch = TrajectoryBatch(drawn.states, np.where(drawn.observations >= 0.0, 1.0, -1.0))
        res = kalman_filter(batch, m)
        assert np.array_equal(res.means, _column_kalman(batch, m))
        assert np.array_equal(res.variances, kalman_filter(drawn, m).variances)

    def test_tracks_known_trajectory(self):
        # Noiseless in the limit: with tiny measurement noise the filter
        # mean must follow the observations.
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.5, sigma_eta=1e-6, sigma0=1.0)
        batch = simulate(m, 5, 3, 20)
        res = kalman_filter(batch, m)
        assert_allclose(res.means[:, 1:], batch.states[:, 1:], atol=1e-4)


class TestRtsSmoother:
    def test_fixed_interval_variances_invert_smoothing_information(self):
        m = _model()
        batch = simulate(m, 5, 2, 30)
        smoothed = rts_smoother(kalman_filter(batch, m), m)
        bounds = smooth_bim_compact(m, MeasurementChannel.UNQUANTIZED, 30).variances
        assert_allclose(smoothed.variances, bounds, rtol=1e-11)

    def test_lag_semantics(self):
        m = _model()
        filtered = kalman_filter(simulate(m, 5, 2, 30), m)
        full = rts_smoother(filtered, m)
        assert full.means.shape == (2, 31) and full.variances.shape == (31,)
        zero = rts_smoother(filtered, m, lag=0)
        assert_allclose(zero.means, filtered.means)
        assert_allclose(zero.variances, filtered.variances)
        lag5 = rts_smoother(filtered, m, lag=5)
        assert lag5.means.shape == (2, 26)
        edge = rts_smoother(filtered, m, lag=30)
        assert edge.means.shape == (2, 1)
        assert_allclose(edge.means[:, 0], full.means[:, 0])
        assert_allclose(edge.variances[0], full.variances[0])
        with pytest.raises(ValueError):
            rts_smoother(filtered, m, lag=31)
        with pytest.raises(ValueError):
            rts_smoother(filtered, m, lag=-1)

    @pytest.mark.parametrize("alpha", (0.0, -0.5, 0.5, 0.999, 0.99999))
    @pytest.mark.parametrize("snr_db", (-30.0, -10.0, 0.0, 10.0, 20.0))
    def test_matches_the_lag_dp_oracle(self, alpha, snr_db):
        horizon = 40
        m = model_for_snr(alpha, snr_db)
        filtered = kalman_filter(simulate(m, 3, 5, horizon), m)
        full = rts_smoother(filtered, m)
        for lag in (0, 1, 10, horizon - 1, horizon):
            got = rts_smoother(filtered, m, lag=lag)
            means, variances = _lag_dp_rts(filtered, m, lag)
            assert got.means.shape == (5, horizon - lag + 1) and got.means.flags.f_contiguous
            assert got.variances.shape == (horizon - lag + 1,)
            assert np.all(np.abs(got.means - means) <= 1e-12 * np.sqrt(variances))
            assert_allclose(got.variances, variances, rtol=1e-12, atol=0)
            # block K - lag of every lag is a block of the fixed-interval pass
            assert np.all(np.abs(full.means[:, horizon - lag] - means[:, -1])
                          <= 1e-12 * math.sqrt(variances[-1]))
            assert_allclose(full.variances[horizon - lag], variances[-1], rtol=1e-12)
        zero = rts_smoother(filtered, m, lag=0)
        assert np.array_equal(zero.means, filtered.means)
        assert np.array_equal(zero.variances, filtered.variances)
        edge = rts_smoother(filtered, m, lag=horizon)
        assert np.array_equal(edge.means[:, 0], full.means[:, 0])
        assert edge.variances[0] == full.variances[0]

    def test_lag_never_increases_variance(self):
        m = _model()
        filtered = kalman_filter(simulate(m, 5, 2, 30), m)
        v1 = rts_smoother(filtered, m, lag=1).variances
        v4 = rts_smoother(filtered, m, lag=4).variances
        assert np.all(v1 <= filtered.variances[:30] + 1e-15)
        assert np.all(v4 <= v1[:27] + 1e-15)

    def test_steady_variance_duality(self):
        # 1 / (steady filter information + steady gain) from the
        # information side equals the Riccati-side smoothed variance.
        m = model_for_snr(0.95, -5.0)
        f = steady_expected_fim(m, MeasurementChannel.UNQUANTIZED)
        j = quadratic_filter_root(m, f)
        kappa = quadratic_gain_root(m, f)
        assert_allclose(rts_steady_variance(m) * (j + kappa), 1.0, rtol=1e-6)

    @pytest.mark.parametrize("alpha,snr_db", ITERABLE_MODELS)
    def test_steady_variance_matches_backward_iteration(self, alpha, snr_db):
        m = model_for_snr(alpha, snr_db)
        assert_allclose(rts_steady_variance(m), _iterated_rts(m), rtol=1e-9)
        long_lag = _lagged_rts_variance(m, 100)
        assert rts_steady_variance(m) <= long_lag <= kalman_steady_variance(m)

    @pytest.mark.parametrize("alpha,snr_db", ITERABLE_MODELS)
    def test_lag_gain_inverts_lagged_rts_variance(self, alpha, snr_db):
        # Information form (steady root plus lag gain steps) against the
        # covariance-form backward loop, lag by lag.
        m = model_for_snr(alpha, snr_db)
        f = steady_expected_fim(m, MeasurementChannel.UNQUANTIZED)
        j = quadratic_filter_root(m, f)
        for lag in (0, 1, 10, 100, 1000):
            gain = steady_lag_gain(m, f, lag)
            assert_allclose(_lagged_rts_variance(m, lag) * (j + gain), 1.0, rtol=1e-12)


class TestChunkBoundaries:
    """The Kalman path's block-major passes, bit for bit, at horizons that straddle
    the multiples of 32 where a pass over chunks of blocks would cut."""

    @pytest.mark.parametrize("horizon", (1, 31, 32, 33, 65))
    def test_a_batch_is_the_first_blocks_of_any_longer_one(self, horizon):
        # The stream runs block by block over all trials, so a longer
        # horizon only appends draws.
        model = GaussMarkovModel(alpha=0.999, sigma_z=0.7, sigma_eta=1.3, sigma0=1.1, mu0=0.2)
        short = simulate(model, 20260814, 5, horizon)
        long = simulate(model, 20260814, 5, 100)
        assert np.array_equal(short.states, long.states[:, : horizon + 1])
        assert np.array_equal(short.observations, long.observations[:, :horizon])

    @pytest.mark.parametrize("horizon", (1, 31, 32, 33, 65))
    @pytest.mark.parametrize("alpha", (0.999, -0.5))
    def test_simulate_filter_and_smoother_match_their_oracles(self, horizon, alpha):
        model = GaussMarkovModel(alpha=alpha, sigma_z=0.7, sigma_eta=1.3, sigma0=1.1, mu0=0.2)
        batch = simulate(model, 20260814, 5, horizon)
        states, observations = _lfilter_batch(model, 20260814, 5, horizon)
        assert np.array_equal(batch.states, states)
        assert np.array_equal(batch.observations, observations)
        filtered = kalman_filter(batch, model)
        assert np.array_equal(filtered.means, _column_kalman(batch, model))
        for lag in (None, 0, 1, 32, horizon - 1, horizon):
            if lag is not None and lag > horizon:
                continue
            smoothed = rts_smoother(filtered, model, lag)
            means, variances = _whole_array_rts(filtered, model, lag)
            assert np.array_equal(smoothed.means, means), lag
            assert np.array_equal(smoothed.variances, variances), lag
            assert smoothed.means.flags.f_contiguous


class TestGridFilter:
    @pytest.mark.parametrize("num_points", (100.5, 1000.0, "1000"))
    def test_grid_spec_rejects_a_non_integer_size(self, num_points):
        with pytest.raises(TypeError, match="num_points"):
            GridSpec(num_points=num_points)
        assert GridSpec(num_points=np.int64(200)) == GridSpec(num_points=200)

    def test_matches_kalman_on_linear_channel(self, gaussian_grid):
        m = _model()
        gaussian_grid(m)
        batch = simulate(m, 21, 8, 25)
        exact = kalman_filter(batch, m)
        approx = grid_filter(batch, m, GridSpec(num_points=2000))
        assert_allclose(approx.means, exact.means, atol=1e-3 * m.sigma_eta)
        assert_allclose(approx.variances, np.broadcast_to(exact.variances, (8, 26)),
                        atol=1e-3 * m.sigma_eta**2)

    def test_smoother_matches_rts_on_linear_channel(self, gaussian_grid):
        m = _model()
        gaussian_grid(m)
        batch = simulate(m, 21, 8, 25)
        exact = rts_smoother(kalman_filter(batch, m), m)
        approx = grid_smoother(grid_filter(batch, m, GridSpec(num_points=2000)))
        assert_allclose(approx.means, exact.means, atol=1e-3 * m.sigma_eta)

    def test_one_bit_single_block_posterior_mean(self):
        # Var[theta_1] = 1 here, so E[theta_1 | sign] = sign / sqrt(pi).
        m = GaussMarkovModel(alpha=0.6, sigma_z=0.8, sigma_eta=1.0, sigma0=1.0)
        batch = simulate(m, 33, 64, 1)
        res = grid_filter(batch, m, GridSpec(num_points=4000, half_width=10.0))
        expected = np.where(batch.observations[:, 0] >= 0.0, 1.0, -1.0) / math.sqrt(math.pi)
        assert_allclose(res.means[:, 1], expected, atol=1e-5)

    def test_one_bit_negation_symmetry(self):
        # The model is symmetric about zero, so flipping every sign must
        # flip the posterior means.
        m = model_for_snr(0.9, 0.0)
        batch = simulate(m, 40, 4, 15)
        flipped = TrajectoryBatch(batch.states, -batch.observations)
        a = grid_filter(batch, m)
        b = grid_filter(flipped, m)
        # float32 arithmetic rounds the mirrored grids apart: 6.4e-9 measured
        assert_allclose(b.means, -a.means, atol=1e-7)
        assert_allclose(b.variances, a.variances, atol=1e-7)

    @pytest.mark.parametrize("snr_db", (-10.0, 5.0))
    def test_an_unquantized_batch_reads_as_its_one_bit_twin(self, snr_db):
        # The grid reads signs, y >= 0 as +1, so an ideal converter's batch
        # gives, bit for bit, what the 1-bit converter's batch of the same
        # signal gives.
        m = model_for_snr(0.999, snr_db)
        ideal = simulate(m, 20260814, 7, 60)
        one_bit = TrajectoryBatch(ideal.states, np.where(ideal.observations >= 0.0, 1.0, -1.0))
        filtered, twin = grid_filter(ideal, m), grid_filter(one_bit, m)
        for name in ("means", "variances", "pmfs", "totals"):
            assert np.array_equal(getattr(filtered, name), getattr(twin, name)), name
        smoothed, smoothed_twin = grid_smoother(filtered), grid_smoother(twin)
        assert np.array_equal(smoothed.means, smoothed_twin.means)
        assert np.array_equal(smoothed.variances, smoothed_twin.variances)

    def test_pmfs_are_per_trial_float32_posteriors(self):
        # Horizon 12 keeps every 4th block: blocks 0, 4, 8 and 12.
        m = model_for_snr(0.9, 0.0)
        batch = simulate(m, 40, 5, 12)
        res = grid_filter(batch, m, GridSpec(num_points=300))
        assert res.pmfs.shape == (5, 4, 300)
        assert res.pmfs.dtype == np.float32 and res.pmfs.nbytes == 5 * 4 * 300 * 4
        assert res.totals.shape == (13, 5) and np.all(res.totals[0] == 1.0)
        totals = res.totals[::4].T
        assert_allclose(res.pmfs.sum(axis=2, dtype=float) / totals, 1.0, rtol=1e-5)
        assert_allclose((res.pmfs @ res.axis) / totals, res.means[:, ::4], atol=1e-5)

    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    # Horizons 1, 2, 3 and 6 are c - 1, c, c + 1 and 2c for their own
    # checkpoint stride c; 25 ends on a one-block segment after the
    # checkpoint at 24, and 60 is no multiple of its stride 8.
    @pytest.mark.parametrize("horizon", (1, 2, 3, 6, 25, 60))
    def test_matches_the_two_pass_oracle(self, channel, horizon, gaussian_grid):
        # Float32 arithmetic with its flush against the float64 two-pass
        # loop: the moments moved by at most 1.7e-7 relative on the default
        # grid, both likelihoods (the unquantized channel's is the Gaussian
        # one), over these horizons. Posterior entries above 1e-8 moved by
        # 6.5e-7 relative; the flushed tails by 1.5e-13 absolute.
        m = model_for_snr(0.999, -10.0)
        sigma_eta = gaussian_grid(m) if channel is MeasurementChannel.UNQUANTIZED else None
        batch = simulate(m, 20260814, 7, horizon)
        filtered = grid_filter(batch, m)
        oracle = _two_pass_filter(batch, m, sigma_eta=sigma_eta)
        _assert_moments_match(filtered, oracle, rtol=1e-5)
        # every block, normalised: the checkpoints and the replayed blocks
        stride = estimators._checkpoint_stride(horizon)
        checkpoints = filtered.pmfs / filtered.totals[::stride].T[:, :, None]
        assert_allclose(checkpoints, oracle.pmfs[:, ::stride], rtol=1e-6, atol=1e-12)
        posteriors = _replayed(filtered) / filtered.totals[:, None, :]
        assert_allclose(posteriors.transpose(2, 0, 1), oracle.pmfs, rtol=1e-6, atol=1e-12)
        _assert_moments_match(grid_smoother(filtered), _two_pass_smoother(oracle, sigma_eta),
                              rtol=1e-5)

    @pytest.mark.parametrize("horizon", (42, 49))
    def test_matches_the_two_pass_oracle_in_mass(self, horizon):
        # At these horizons a few one-bit tail entries near 1e-11, mass
        # flushed at the floor and later raised by the likelihood ratios,
        # miss the pointwise check above by up to 2.2e-12. As mass they are
        # far below it: the L1 distance of each posterior read at most 2.3e-7
        # over horizons 1-80, and 1.2e-4 at horizon 42 with a floor of 2^-30.
        m = model_for_snr(0.999, -10.0)
        batch = simulate(m, 20260814, 7, horizon)
        filtered = grid_filter(batch, m)
        oracle = _two_pass_filter(batch, m)
        posteriors = (_replayed(filtered) / filtered.totals[:, None, :]).transpose(2, 0, 1)
        assert np.abs(posteriors - oracle.pmfs).sum(axis=2).max() <= 1e-6
        _assert_moments_match(filtered, oracle, rtol=1e-5)
        _assert_moments_match(grid_smoother(filtered), _two_pass_smoother(oracle), rtol=1e-5)

    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_replay_continues_into_the_next_checkpoint_bit_for_bit(self, channel, gaussian_grid):
        # Each segment replayed one block past its end lands on the next
        # checkpoint: the replay repeats the filter's step with the same
        # operands. Horizon 60 has stride 8: checkpoints at 0, 8, ..., 56.
        # The unquantized channel runs the Gaussian likelihood.
        m = model_for_snr(0.999, -10.0)
        if channel is MeasurementChannel.UNQUANTIZED:
            gaussian_grid(m)
        filtered = grid_filter(simulate(m, 20260814, 7, 60), m, GridSpec(num_points=400))
        stride = estimators._checkpoint_stride(60)
        out = np.empty((stride + 1, 400, 7), dtype=np.float32)
        assert filtered.pmfs.shape[1] == 8
        for j in range(1, 8):
            estimators._replay(filtered, (j - 1) * stride, out, *_replay_work(filtered))
            assert np.array_equal(out[stride], filtered.pmfs[:, j].T)

    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_likelihood_buffer_matches_the_table_gather_exactly(self, channel):
        # An unquantized observation reads as its sign; 0 and -0 as +1. The
        # one-bit channel's observations are the signs themselves, +-1.
        m = model_for_snr(0.9, 0.0)
        batch = simulate(m, 8, 9, 30)
        observations = batch.observations.copy()
        if channel is MeasurementChannel.UNQUANTIZED:
            observations[:2, 0] = 0.0, -0.0
        else:
            observations = np.where(observations >= 0.0, 1.0, -1.0)
        ops = grid_filter(batch, m, GridSpec(num_points=300)).operators
        out = np.empty((300, 9), dtype=np.float32)
        ones = np.ones(9, dtype=np.float32)
        # a non-unit per-trial scale, as the filter and the smoother pass
        scale = np.linspace(0.3, 7.0, 9, dtype=np.float32)
        for k in range(30):
            observation = observations[:, k]
            # a gather from the float32 table
            expected = _oracle_likelihood(ops, observation)
            assert np.array_equal(ops.likelihood(observation, out, ones), expected)
            # each column scaled exactly as a pass over the unit-scale result
            assert np.array_equal(ops.likelihood(observation, out, scale), expected * scale)

    def test_refinement_stability(self):
        m = model_for_snr(0.9, 0.0)
        batch = simulate(m, 40, 4, 15)
        coarse = grid_filter(batch, m, GridSpec(num_points=1500))
        fine = grid_filter(batch, m, GridSpec(num_points=3000))
        assert_allclose(coarse.means, fine.means, atol=2e-4)

    @pytest.mark.parametrize("alpha,snr_db,channel", [
        (0.9, 0.0, MeasurementChannel.UNQUANTIZED),
        (0.9, 0.0, MeasurementChannel.ONE_BIT),
        (0.999, -10.0, MeasurementChannel.ONE_BIT),
    ])
    def test_smoother_survives_a_long_horizon(self, alpha, snr_db, channel, gaussian_grid):
        # Unscaled, the backward evidence underflows a few hundred blocks
        # before the end; the scale carried into each likelihood keeps it.
        # The unquantized channel runs the Gaussian likelihood.
        m = model_for_snr(alpha, snr_db)
        if channel is MeasurementChannel.UNQUANTIZED:
            gaussian_grid(m)
        batch = simulate(m, 22, 3, 1500)
        smoothed = grid_smoother(grid_filter(batch, m, GridSpec(num_points=200)))
        assert np.all(np.isfinite(smoothed.means))
        assert np.all(np.isfinite(smoothed.variances))
        assert np.all(smoothed.variances > 0.0)


def _subnormals(x: np.ndarray) -> int:
    """Count of float32 subnormals (nonzero, below the smallest normal float32) in ``x``."""
    return np.count_nonzero((x != 0.0) & (np.abs(x) < np.finfo(np.float32).tiny))


class TestGridFlush:
    def test_planted_masses_below_the_floor_reach_no_product(self, monkeypatch):
        # The mc_onebit alpha (0.999) at +5 dB, where the float64 tails used
        # to go subnormal. Each prior tail gets masses from 1e-16 down to 1e-45 and
        # 1e-310, all below the floor: unflushed, they become float32
        # subnormals. The float64 two-pass oracle keeps every one of them.
        m = model_for_snr(0.999, 5.0)
        batch = simulate(m, 23, 4, 60)
        grid = GridSpec(num_points=200)
        planted = np.append(10.0 ** -np.arange(16.0, 46.0), 1e-310)
        cell_masses, apply_tiles = estimators._cell_masses, estimators._apply_tiles

        def with_planted_tails(points, centers, sd, h):
            masses = cell_masses(points, centers, sd, h)
            if np.ndim(centers) == 0:  # the prior, not a band of the operator
                masses[: planted.size] = planted
                masses[-planted.size:] = planted[::-1]
            return masses

        operands = []

        def watched(tiles, x, out):
            operands.append(_subnormals(x))
            return apply_tiles(tiles, x, out)

        monkeypatch.setattr(estimators, "_cell_masses", with_planted_tails)
        monkeypatch.setattr(estimators, "_apply_tiles", watched)
        filtered = grid_filter(batch, m, grid)
        smoothed = grid_smoother(filtered)
        oracle = _two_pass_filter(batch, m, grid)
        assert np.count_nonzero(oracle.pmfs[:, 0] < 1e-15) == 2 * planted.size * 4

        assert _subnormals(filtered.pmfs) == 0
        # the filter's K products, the replay's (K less one per segment; 8
        # segments of stride 8) and the smoother's K
        assert len(operands) == 3 * batch.horizon - 8 and sum(operands) == 0
        _assert_moments_match(filtered, oracle, rtol=1e-5)
        _assert_moments_match(smoothed, _two_pass_smoother(oracle), rtol=1e-5)

    @pytest.mark.parametrize("snr_db", (0.0, 5.0, 10.0))
    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_checkpoints_and_replayed_posteriors_hold_no_subnormal(self, snr_db, channel,
                                                                      gaussian_grid):
        # Each posterior is flushed below 2^-50 of its own total, not of 1.
        # The unquantized channel runs the Gaussian likelihood.
        m = model_for_snr(0.999, snr_db)
        if channel is MeasurementChannel.UNQUANTIZED:
            gaussian_grid(m)
        filtered = grid_filter(simulate(m, 7, 10, 200), m)
        assert _subnormals(filtered.pmfs) == 0
        assert _subnormals(_replayed(filtered)) == 0


def _with_observation(batch, trial: int, column: int, value: float):
    """``batch`` with one observation replaced."""
    observations = batch.observations.copy()
    observations[trial, column] = value
    return dataclasses.replace(batch, observations=observations)


class TestGridDegeneracy:
    """Each check names the block where the grid lost the state.

    The grid runs the Gaussian likelihood, under which an observation far
    outside the grid leaves no mass.
    """

    @pytest.fixture
    def case(self, gaussian_grid):
        m = model_for_snr(0.9, 0.0)
        gaussian_grid(m)
        return m, simulate(m, 4, 5, 40)

    def test_filter_raises_on_an_observation_far_outside_the_grid(self, case):
        m, batch = case
        with pytest.raises(NumericalDegeneracyError, match="posterior mass vanished") as info:
            grid_filter(_with_observation(batch, 2, 9, 1e6), m, GridSpec(num_points=200))
        assert info.value.block == 10

    def test_smoother_raises_when_backward_evidence_vanishes(self, case):
        # Observation column l is block l + 1's, which the step into block l reads.
        m, batch = case
        filtered = grid_filter(batch, m, GridSpec(num_points=200))
        replaced = dataclasses.replace(filtered, batch=_with_observation(batch, 3, 20, 1e6))
        with pytest.raises(NumericalDegeneracyError, match="backward evidence vanished") as info:
            grid_smoother(replaced)
        assert info.value.block == 20

    def test_smoother_raises_when_the_smoothed_mass_vanishes(self, case):
        # Horizon 40 has stride 7: the checkpoint of block 28 seeds blocks
        # 28-34, and the backward pass meets block 34 first.
        m, batch = case
        filtered = grid_filter(batch, m, GridSpec(num_points=200))
        filtered.pmfs[:, 4] = 0.0
        with pytest.raises(NumericalDegeneracyError,
                           match="smoothed posterior mass vanished") as info:
            grid_smoother(filtered)
        assert info.value.block == 34


def _operator_case(alpha: float, step_ratio: float, grid: GridSpec):
    """A grid axis from ``grid`` and a model whose sigma_z is ``step_ratio`` grid steps."""
    base = GaussMarkovModel(alpha=alpha, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
    axis = estimators._grid_axis(base, grid, 20)
    model = dataclasses.replace(base, sigma_z=step_ratio * (axis[1] - axis[0]))
    return axis, model


class TestTiledOperator:
    @pytest.mark.parametrize("alpha", (0.0, -0.7, 0.5, 0.999, 1.0))
    @pytest.mark.parametrize("step_ratio", (0.3, 4.0))
    @pytest.mark.parametrize("grid", (GridSpec(num_points=64), GridSpec(num_points=64, half_width=32.0),
                                      GridSpec(num_points=1000, half_width=32.0)))
    def test_products_match_the_csr_oracle(self, alpha, step_ratio, grid):
        axis, model = _operator_case(alpha, step_ratio, grid)
        ops = estimators._grid_operators(axis, model)
        matrix = _transition_matrix(axis, model)
        n = axis.size
        x = np.random.default_rng(7).random((n, 9))
        for tiles, oracle in ((ops.forward, matrix), (ops.adjoint, matrix.T)):
            # the oracle's entries, with those below the floor set to 0
            dense = oracle.toarray()
            dense[dense < estimators._FLOOR] = 0.0
            # NaN-filled outputs: a row that no tile writes shows up. Each
            # entry is rounded once to float32: 5.5e-8 relative measured.
            out = estimators._apply_tiles(tiles, x, np.full_like(x, np.nan))
            assert_allclose(out, dense @ x, rtol=1e-6, atol=0.0)
            # Unit vectors read every entry back exactly, down to the
            # smallest masses kept at the band edges, which a random input
            # cannot see.
            unit = estimators._apply_tiles(tiles, np.eye(n, dtype=np.float32),
                                           np.full((n, n), np.nan, dtype=np.float32))
            assert np.array_equal(unit, dense.astype(np.float32))

    @pytest.mark.parametrize("alpha", (0.999, 0.0, -0.7))
    def test_large_grid_stays_within_the_band(self, alpha):
        # 100,000 points, sigma_z about a sixth of the grid step: the band
        # half-width is 3 cells. An n x n operator would need 80 GB. Each
        # operator may hold c = 2 times n * (tile rows + band) elements; near
        # alpha = 1 it holds about 0.98 of that.
        n = 100_000
        model = GaussMarkovModel(alpha=alpha, sigma_z=1.0, sigma_eta=1.0, sigma0=1e4)
        axis = estimators._grid_axis(model, GridSpec(num_points=n, half_width=32.0), 1)
        halfband = math.ceil(8.5 * model.sigma_z / (axis[1] - axis[0])) + 1
        budget = n * (estimators._TILE_ROWS + 2 * halfband + 1)
        tracemalloc.start()
        try:
            ops = estimators._grid_operators(axis, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for tiles in (ops.forward, ops.adjoint):
            assert sum(block.size for *_, block in tiles) <= 2 * budget
        assert peak <= 8 * 4 * budget

    def test_grid_report_matches_the_csr_oracle(self, monkeypatch):
        m = model_for_snr(0.95, 0.0)
        # sub-batches of 5 trials
        monkeypatch.setattr(estimators, "_SUB_BATCH_TRIALS", 5)
        kwargs = dict(seed=5, num_trials=12, horizon=80, grid=GridSpec(num_points=400))
        tiled = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", **kwargs)
        build = estimators._grid_operators

        def with_oracle(axis, model):
            matrix = _transition_matrix(axis, model)
            return dataclasses.replace(build(axis, model), forward=matrix,
                                       adjoint=matrix.T.tocsr())

        monkeypatch.setattr(estimators, "_grid_operators", with_oracle)
        monkeypatch.setattr(estimators, "_apply_tiles", _csr_apply)
        oracle = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", **kwargs)
        for field in dataclasses.fields(MseReport):
            a, b = getattr(tiled, field.name), getattr(oracle, field.name)
            if isinstance(a, (float, np.ndarray)):
                # float32 sums in another order: 4.9e-8 measured
                assert_allclose(a, b, rtol=1e-6, atol=0.0, err_msg=field.name)
            else:
                assert a == b

    def test_operators_are_built_once_per_call(self, monkeypatch):
        builds = []
        build = estimators._grid_operators

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(estimators, "_grid_operators", counted)
        # sub-batches of 3 trials
        monkeypatch.setattr(estimators, "_SUB_BATCH_TRIALS", 3)
        monte_carlo_mse(model_for_snr(0.9, 0.0), MeasurementChannel.ONE_BIT, "grid", seed=3,
                        num_trials=7, horizon=40, grid=GridSpec(num_points=200))
        assert len(builds) == 1

    def test_sub_batches_hold_checkpoints_only(self, monkeypatch):
        # Horizon 40 has stride 7: each sub-batch's filter keeps blocks 0, 7,
        # ..., 35, whatever its width.
        sub_batches = []
        run = estimators.grid_filter

        def counted_filter(batch, *args, **kwargs):
            result = run(batch, *args, **kwargs)
            sub_batches.append(result.pmfs.shape)
            return result

        monkeypatch.setattr(estimators, "grid_filter", counted_filter)
        monkeypatch.setattr(estimators, "_SUB_BATCH_TRIALS", 7)
        monte_carlo_mse(model_for_snr(0.9, 0.0), MeasurementChannel.ONE_BIT, "grid", seed=3,
                        num_trials=30, horizon=40, grid=GridSpec(num_points=200))
        assert sub_batches == [(7, 6, 200)] * 4 + [(2, 6, 200)]

    def test_filter_results_sharing_operators_do_not_alias(self):
        m = model_for_snr(0.9, 0.0)
        first = grid_filter(simulate(m, 4, 5, 30), m, GridSpec(num_points=200))
        kept = first.pmfs.copy()
        second = grid_filter(simulate(m, 5, 5, 30), m, operators=first.operators)
        assert not np.shares_memory(first.pmfs, second.pmfs)
        assert np.array_equal(first.pmfs, kept)
        assert not np.array_equal(second.pmfs, kept)

    @pytest.mark.parametrize("num_points", (1000, 5000))
    def test_build_peak_stays_near_the_tiles(self, num_points):
        # The mse-validate model: each tile is filled from its own band
        # entries, so the build holds little beyond the tiles it returns.
        model = model_for_snr(0.999, -10.0)
        axis = estimators._grid_axis(model, GridSpec(num_points=num_points), 500)
        tracemalloc.start()
        try:
            ops = estimators._grid_operators(axis, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tiles = sum(block.nbytes for t in (ops.forward, ops.adjoint) for *_, block in t)
        assert peak <= 1.5 * tiles

    @pytest.mark.parametrize("model", (
        model_for_snr(0.999, -10.0),
        GaussMarkovModel(alpha=-0.95, sigma_z=0.4, sigma_eta=1.3, sigma0=2.0, mu0=1.5),
        model_for_snr(0.99999, 0.0),
    ))
    def test_cell_masses_equal_one_tail_call_per_edge(self, model, monkeypatch):
        # q_function is elementwise, so the lower and upper cell edges in one
        # call give, bit for bit, the masses of one call per edge.
        def two_calls(points, centers, sd, h):
            return (q_function((points - 0.5 * h - centers) / sd)
                    - q_function((points + 0.5 * h - centers) / sd))

        axis = estimators._grid_axis(model, GridSpec(), 500)
        h = axis[1] - axis[0]
        ops = estimators._grid_operators(axis, model)
        prior = estimators._cell_masses(axis, model.mu0, model.sigma0, h)
        monkeypatch.setattr(estimators, "_cell_masses", two_calls)
        oracle = estimators._grid_operators(axis, model)
        assert np.array_equal(prior, two_calls(axis, model.mu0, model.sigma0, h))
        for got, want in ((ops.forward, oracle.forward), (ops.adjoint, oracle.adjoint)):
            assert len(got) == len(want)
            for (*span, block), (*span_want, block_want) in zip(got, want):
                assert span == span_want and np.array_equal(block, block_want)


class TestBurnIn:
    def test_formula(self):
        m = _model()
        assert burn_in_blocks(m, 500) == math.ceil(10.0 / (1.0 - 0.81))
        assert burn_in_blocks(m, 20) == 10
        walk = GaussMarkovModel(alpha=1.0, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
        assert burn_in_blocks(walk, 100) == 50
        with pytest.raises(ValueError):
            burn_in_blocks(m, 0)


class TestMonteCarloMse:
    def test_kalman_path_bound_validity_and_tightness(self):
        # The exact conditional mean attains the bound, so MSE / bound must
        # sit near 1 within sampling error on both filter and smoother.
        m = model_for_snr(0.95, 0.0)
        report = monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman",
                                 seed=123, num_trials=400, horizon=300, lag=40)
        for mse, se, bound in (
            (report.steady_filter_mse, report.steady_filter_se, report.steady_filter_bound),
            (report.steady_smooth_mse, report.steady_smooth_se, report.steady_smooth_bound),
        ):
            assert abs(mse - bound) < 4.0 * se
        assert report.lag == 40
        assert report.burn_in == burn_in_blocks(m, 300)
        assert report.smooth_mse.shape == (261,)
        assert report.smooth_bound.shape == (261,)

    def test_kalman_path_per_block_bounds_hold(self):
        m = model_for_snr(0.95, 0.0)
        report = monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman",
                                 seed=123, num_trials=400, horizon=300, lag=40)
        ok_f = report.filter_mse >= report.filter_bound - 5.0 * report.filter_se
        ok_s = report.smooth_mse >= report.smooth_bound - 5.0 * report.smooth_se
        assert np.all(ok_f) and np.all(ok_s)

    @pytest.mark.parametrize("trials", (1, 2, 3, 7, 2000))
    @pytest.mark.parametrize("width", (None, 1, 13))
    def test_trial_stats_equal_numpy_mean_and_std_bit_for_bit(self, trials, width):
        # width None is the 1-D steady-region input, one MSE per trial
        shape = (trials,) if width is None else (trials, width)
        errors_sq = np.random.default_rng(trials).standard_normal(shape) ** 2
        mse, se = estimators._trial_stats(errors_sq.copy())
        assert np.array_equal(mse, errors_sq.mean(axis=0))
        if trials == 1:
            assert np.all(np.isnan(se))
        else:
            assert np.array_equal(se, errors_sq.std(axis=0, ddof=1) / math.sqrt(trials))

    @pytest.mark.slow
    def test_grid_path_one_bit_bound_validity(self):
        m = model_for_snr(0.95, 0.0)
        report = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid",
                                 seed=123, num_trials=200, horizon=160,
                                 grid=GridSpec(num_points=1200))
        assert report.steady_filter_mse > report.steady_filter_bound - 4.0 * report.steady_filter_se
        assert report.steady_smooth_mse > report.steady_smooth_bound - 4.0 * report.steady_smooth_se
        # One-bit smoothing still beats one-bit filtering.
        assert report.steady_smooth_mse < report.steady_filter_mse
        assert report.lag is None

    def test_rejects_bad_estimator_and_channel(self):
        m = model_for_snr(0.95, 0.0)
        with pytest.raises(ValueError):
            monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "exact",
                            seed=1, num_trials=4, horizon=50)
        with pytest.raises(ValueError, match="unquantized"):
            monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "kalman",
                            seed=1, num_trials=4, horizon=50)
        with pytest.raises(ValueError, match="one_bit"):
            monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "grid",
                            seed=1, num_trials=4, horizon=50)
        with pytest.raises(ValueError, match="GridSpec"):
            monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman",
                            seed=1, num_trials=4, horizon=50, grid=GridSpec(num_points=200))

    def test_rejects_a_channel_name_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("monte_carlo_mse drew before checking the channel")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for estimator in ("kalman", "grid"):
            for name in ("unquantized", "one_bit"):
                with pytest.raises(TypeError, match="MeasurementChannel"):
                    monte_carlo_mse(model_for_snr(0.9, 0.0), name, estimator,
                                    seed=7, num_trials=4, horizon=60)

    @pytest.mark.parametrize("name,value,error", [
        ("lag", -1, ValueError), ("lag", 2.5, TypeError), ("lag", None, TypeError),
        ("lag", "3", TypeError), ("num_trials", 3.0, TypeError), ("seed", 7.0, TypeError),
        ("horizon", 50.0, TypeError),
    ])
    def test_rejects_a_bad_integer_before_computing(self, monkeypatch, name, value, error):
        def no_work(*args, **kwargs):
            raise AssertionError(f"monte_carlo_mse computed before checking {name}")

        # neither the bound quadratures nor the draws may run first
        monkeypatch.setattr(estimators, "per_block_fims", no_work)
        monkeypatch.setattr(estimators, "simulate", no_work)
        m = model_for_snr(0.9, 0.0)
        kwargs = {**dict(seed=7, num_trials=4, horizon=60, lag=0), name: value}
        for channel, estimator in ((MeasurementChannel.UNQUANTIZED, "kalman"),
                                   (MeasurementChannel.ONE_BIT, "grid")):
            with pytest.raises(error, match=name):
                monte_carlo_mse(m, channel, estimator, **kwargs)

    def test_numpy_integers_are_integers(self):
        m = model_for_snr(0.9, 0.0)
        got = monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman", np.uint64(3),
                              np.int64(4), np.int32(60), lag=np.int16(2))
        want = monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman", 3, 4, 60, lag=2)
        assert np.array_equal(got.filter_mse, want.filter_mse)
        assert np.array_equal(got.smooth_mse, want.smooth_mse)

    def test_both_estimators_read_the_same_batch(self, monkeypatch):
        # One seed draws one unquantized batch; the grid reads its signs.
        batches = []
        draw = estimators.simulate

        def recorded(*args, **kwargs):
            batch = draw(*args, **kwargs)
            batches.append((batch.states.copy(), batch.observations.copy()))
            return batch

        monkeypatch.setattr(estimators, "simulate", recorded)
        m = model_for_snr(0.9, 0.0)
        kwargs = dict(seed=3, num_trials=4, horizon=60)
        monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman", **kwargs)
        monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", grid=GridSpec(num_points=200),
                        **kwargs)
        (states, observations), (grid_states, grid_observations) = batches
        assert np.array_equal(grid_states, states)
        assert np.array_equal(grid_observations, observations)

    def test_the_grid_path_reads_only_signs(self, monkeypatch):
        # Handing the grid path the +-1 twin of its batch changes no field
        # of the report: the magnitudes of y are never read.
        draw = estimators.simulate

        def signs(*args, **kwargs):
            batch = draw(*args, **kwargs)
            return TrajectoryBatch(batch.states, np.where(batch.observations >= 0.0, 1.0, -1.0))

        m = model_for_snr(0.9, 0.0)
        kwargs = dict(seed=3, num_trials=4, horizon=60, grid=GridSpec(num_points=200))
        report = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", **kwargs)
        monkeypatch.setattr(estimators, "simulate", signs)
        twin = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", **kwargs)
        for field in dataclasses.fields(MseReport):
            got, want = getattr(twin, field.name), getattr(report, field.name)
            assert np.array_equal(got, want), field.name

    def test_rejects_horizon_shorter_than_burn_in_plus_lag(self):
        m = model_for_snr(0.95, 0.0)
        with pytest.raises(ValueError):
            monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman",
                            seed=1, num_trials=4, horizon=120, lag=60)

    def test_grid_path_rejects_a_lag(self):
        m = model_for_snr(0.95, 0.0)
        with pytest.raises(ValueError, match="lag"):
            monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid",
                            seed=1, num_trials=4, horizon=50, lag=5)

    @pytest.mark.parametrize("channel,estimator", [
        (MeasurementChannel.UNQUANTIZED, "kalman"), (MeasurementChannel.ONE_BIT, "grid"),
    ])
    def test_builds_the_fims_once(self, channel, estimator, fims_builds):
        grid = GridSpec(num_points=200) if estimator == "grid" else GridSpec()
        monte_carlo_mse(model_for_snr(0.9, 0.0), channel, estimator, seed=3, num_trials=2,
                        horizon=60, lag=0, grid=grid)
        assert len(fims_builds) == 1

    def test_single_trial_reports_nan_se(self):
        m = model_for_snr(0.9, 0.0)
        report = monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman",
                                 seed=9, num_trials=1, horizon=120, lag=0)
        assert math.isnan(report.steady_filter_se)
        assert np.all(np.isnan(report.filter_se))

    def test_grid_batching_does_not_change_results(self, monkeypatch):
        m = model_for_snr(0.9, 0.0)
        kwargs = dict(seed=17, num_trials=30, horizon=60, grid=GridSpec(num_points=800))
        monkeypatch.setattr(estimators, "_SUB_BATCH_TRIALS", 7)
        a = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", **kwargs)
        monkeypatch.setattr(estimators, "_SUB_BATCH_TRIALS", 30)
        b = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", **kwargs)
        # the float32 products block by the trial count: 3.3e-8 measured
        assert_allclose(a.filter_mse, b.filter_mse, rtol=1e-6)
        assert_allclose(a.smooth_mse, b.smooth_mse, rtol=1e-6)

    def test_grid_path_memory_is_the_checkpoints_and_one_segment(self):
        # Horizon 100 has stride 11: 10 checkpoints and an 11-block segment,
        # 4.2 MB at 50 trials. The traced peak was 1.56 times that; a store
        # of all 101 posteriors alone would be 4.8 times.
        m = model_for_snr(0.999, -10.0)
        kwargs = dict(seed=1, num_trials=50, horizon=100, grid=GridSpec(num_points=1000))
        kept = 4 * 1000 * 50 * (100 // 11 + 1 + 11)
        tracemalloc.start()
        try:
            monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * kept

    def test_kalman_path_memory_is_three_arrays_and_the_tail(self):
        # States, filtered means and smoothed means are the only full
        # (trials, K + 1) arrays alive at once; the smoother's last ``lag``
        # rows of corrections add 50 / 301 of one here. The traced peak was
        # 3.17 arrays; 3.56 with chunked copies and a ring of corrections,
        # and 6.85 with a whole draw buffer, whole-array transposes and
        # fresh error arrays.
        m = model_for_snr(0.999, -10.0)
        trials, horizon = 200, 300
        array = 8 * trials * (horizon + 1)
        # a first call pays numpy's lazy imports, 0.7 MB of traced objects
        monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman", 1, 2, horizon, lag=50)
        tracemalloc.start()
        try:
            monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman", 1, trials, horizon, lag=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.4 * array

    def test_sub_batches_are_sized_from_the_grid(self):
        # Horizon 500 has stride 23: 22 checkpoints and a 23-block segment,
        # 180 kB per trial on the default grid, which runs 100 trials per
        # sub-batch (18 MB); the largest grid runs one at a time (18 MB).
        assert estimators._checkpoint_stride(500) == 23
        assert estimators._sub_batch_trials(1000, 500) == 100
        assert estimators._sub_batch_trials(100_000, 500) == 1
        assert estimators._sub_batch_trials(100_000, 100_000) == 1
        for points in (1000, 100_000):
            trials = estimators._sub_batch_trials(points, 500)
            assert trials * 4 * points * (22 + 23) <= estimators._SUB_BATCH_BYTES


class TestMseReportValidation:
    def test_rejects_negative_entries(self):
        good = dict(
            channel=MeasurementChannel.UNQUANTIZED, estimator="kalman", seed=0,
            num_trials=2, horizon=1, lag=0, burn_in=0,
            filter_mse=np.array([0.1]), filter_se=np.array([0.01]),
            filter_bound=np.array([0.1]), smooth_mse=np.array([0.1]),
            smooth_se=np.array([0.01]), smooth_bound=np.array([0.1]),
            steady_filter_mse=0.1, steady_filter_se=0.01, steady_filter_bound=0.1,
            steady_smooth_mse=0.1, steady_smooth_se=0.01, steady_smooth_bound=0.1,
        )
        MseReport(**good)
        with pytest.raises(ValueError):
            MseReport(**{**good, "filter_mse": np.array([-0.1])})
