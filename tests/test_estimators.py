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


def _lfilter_batch(model, channel, seed, num_trials, horizon):
    """Reference ``simulate``: the state recursion through scipy's IIR filter."""
    from scipy import signal

    children = np.random.SeedSequence(seed).spawn(num_trials)
    draws = np.stack([np.random.default_rng(c).standard_normal(2 * horizon + 1)
                      for c in children])
    theta0 = model.mu0 + model.sigma0 * draws[:, 0]
    noise_z = model.sigma_z * draws[:, 1 : horizon + 1]
    later, _ = signal.lfilter([1.0], [1.0, -model.alpha], noise_z, axis=1,
                              zi=(model.alpha * theta0)[:, None])
    states = np.concatenate([theta0[:, None], later], axis=1)
    raw = states[:, 1:] + model.sigma_eta * draws[:, horizon + 1 :]
    if channel is MeasurementChannel.ONE_BIT:
        return states, np.where(raw >= 0.0, 1.0, -1.0)
    return states, raw


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


class TestSimulate:
    @pytest.mark.parametrize("alpha", (0.0, -0.5, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0))
    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_matches_the_iir_filter_bit_for_bit(self, alpha, channel):
        model = GaussMarkovModel(alpha=alpha, sigma_z=0.7, sigma_eta=1.3, sigma0=1.1, mu0=0.2)
        for num_trials, horizon in ((1, 1), (1, 30), (7, 64), (300, 500)):
            batch = simulate(model, channel, 20260814, num_trials, horizon)
            states, observations = _lfilter_batch(model, channel, 20260814, num_trials, horizon)
            assert np.array_equal(batch.states, states)
            assert np.array_equal(batch.observations, observations)
            # Downstream reductions sum in memory order, so the layout is part
            # of the result: a Fortran-ordered batch changes the MSE digits.
            assert batch.states.flags.c_contiguous
            assert batch.observations.flags.c_contiguous

    def test_deterministic_for_fixed_seed(self):
        a = simulate(_model(), MeasurementChannel.UNQUANTIZED, 7, 4, 20)
        b = simulate(_model(), MeasurementChannel.UNQUANTIZED, 7, 4, 20)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)

    def test_channels_share_state_paths(self):
        # Common random numbers: only the measurement map differs.
        ideal = simulate(_model(), MeasurementChannel.UNQUANTIZED, 7, 4, 20)
        hard = simulate(_model(), MeasurementChannel.ONE_BIT, 7, 4, 20)
        assert np.array_equal(ideal.states, hard.states)
        assert np.array_equal(hard.observations, np.sign(ideal.observations))

    def test_one_bit_observations_are_signs(self):
        batch = simulate(_model(), MeasurementChannel.ONE_BIT, 3, 10, 50)
        assert set(np.unique(batch.observations)) <= {-1.0, 1.0}

    def test_marginal_moments_match_analytic(self):
        m = _model()
        batch = simulate(m, MeasurementChannel.UNQUANTIZED, 11, 200_000, 3)
        for k in range(4):
            mom = state_moments(m, k)
            col = batch.states[:, k]
            assert_allclose(col.mean(), mom.mean, atol=4.0 * math.sqrt(mom.variance / 200_000))
            assert_allclose(col.var(), mom.variance, rtol=0.02)

    def test_seed_changes_data(self):
        a = simulate(_model(), MeasurementChannel.UNQUANTIZED, 7, 4, 20)
        b = simulate(_model(), MeasurementChannel.UNQUANTIZED, 8, 4, 20)
        assert not np.array_equal(a.states, b.states)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate(_model(), MeasurementChannel.UNQUANTIZED, -1, 4, 20)
        with pytest.raises(ValueError):
            simulate(_model(), MeasurementChannel.UNQUANTIZED, 7, 0, 20)
        with pytest.raises(ValueError):
            simulate(_model(), MeasurementChannel.UNQUANTIZED, 7, 4, 0)


class TestKalmanFilter:
    def test_variances_invert_filter_information(self):
        # Linear-Gaussian duality: posterior variance is the inverse of the
        # recursive filtering information at every block.
        m = _model()
        batch = simulate(m, MeasurementChannel.UNQUANTIZED, 5, 2, 30)
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

    def test_rejects_one_bit_batch(self):
        batch = simulate(_model(), MeasurementChannel.ONE_BIT, 5, 2, 10)
        with pytest.raises(ValueError):
            kalman_filter(batch, _model())

    def test_tracks_known_trajectory(self):
        # Noiseless in the limit: with tiny measurement noise the filter
        # mean must follow the observations.
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.5, sigma_eta=1e-6, sigma0=1.0)
        batch = simulate(m, MeasurementChannel.UNQUANTIZED, 5, 3, 20)
        res = kalman_filter(batch, m)
        assert_allclose(res.means[:, 1:], batch.states[:, 1:], atol=1e-4)


class TestRtsSmoother:
    def test_fixed_interval_variances_invert_smoothing_information(self):
        m = _model()
        batch = simulate(m, MeasurementChannel.UNQUANTIZED, 5, 2, 30)
        smoothed = rts_smoother(kalman_filter(batch, m), m)
        bounds = smooth_bim_compact(m, MeasurementChannel.UNQUANTIZED, 30).variances
        assert_allclose(smoothed.variances, bounds, rtol=1e-11)

    def test_lag_semantics(self):
        m = _model()
        filtered = kalman_filter(simulate(m, MeasurementChannel.UNQUANTIZED, 5, 2, 30), m)
        full = rts_smoother(filtered, m)
        assert full.means.shape == (2, 31) and full.lag is None
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

    def test_lag_never_increases_variance(self):
        m = _model()
        filtered = kalman_filter(simulate(m, MeasurementChannel.UNQUANTIZED, 5, 2, 30), m)
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
        j = quadratic_filter_root(m, steady_expected_fim(m, MeasurementChannel.UNQUANTIZED))
        for lag in (0, 1, 10, 100, 1000):
            gain = steady_lag_gain(m, MeasurementChannel.UNQUANTIZED, lag)
            assert_allclose(_lagged_rts_variance(m, lag) * (j + gain), 1.0, rtol=1e-12)


class TestGridFilter:
    def test_matches_kalman_on_linear_channel(self):
        m = _model()
        batch = simulate(m, MeasurementChannel.UNQUANTIZED, 21, 8, 25)
        exact = kalman_filter(batch, m)
        approx = grid_filter(batch, m, GridSpec(num_points=2000))
        assert_allclose(approx.means, exact.means, atol=1e-3 * m.sigma_eta)
        assert_allclose(approx.variances, np.broadcast_to(exact.variances, (8, 26)),
                        atol=1e-3 * m.sigma_eta**2)

    def test_smoother_matches_rts_on_linear_channel(self):
        m = _model()
        batch = simulate(m, MeasurementChannel.UNQUANTIZED, 21, 8, 25)
        exact = rts_smoother(kalman_filter(batch, m), m)
        approx = grid_smoother(grid_filter(batch, m, GridSpec(num_points=2000)))
        assert_allclose(approx.means, exact.means, atol=1e-3 * m.sigma_eta)

    def test_one_bit_single_block_posterior_mean(self):
        # Var[theta_1] = 1 here, so E[theta_1 | sign] = sign / sqrt(pi).
        m = GaussMarkovModel(alpha=0.6, sigma_z=0.8, sigma_eta=1.0, sigma0=1.0)
        batch = simulate(m, MeasurementChannel.ONE_BIT, 33, 64, 1)
        res = grid_filter(batch, m, GridSpec(num_points=4000, half_width=10.0))
        expected = batch.observations[:, 0] / math.sqrt(math.pi)
        assert_allclose(res.means[:, 1], expected, atol=1e-5)

    def test_one_bit_negation_symmetry(self):
        # The model is symmetric about zero, so flipping every sign must
        # flip the posterior means.
        m = model_for_snr(0.9, 0.0)
        batch = simulate(m, MeasurementChannel.ONE_BIT, 40, 4, 15)
        flipped = batch.__class__(
            seed=batch.seed, num_trials=4, horizon=15, channel=batch.channel,
            states=batch.states, observations=-batch.observations,
        )
        a = grid_filter(batch, m)
        b = grid_filter(flipped, m)
        assert_allclose(b.means, -a.means, atol=1e-10)
        assert_allclose(b.variances, a.variances, atol=1e-10)

    def test_pmfs_are_per_trial_float32_posteriors(self):
        m = model_for_snr(0.9, 0.0)
        batch = simulate(m, MeasurementChannel.ONE_BIT, 40, 5, 12)
        res = grid_filter(batch, m, GridSpec(num_points=300))
        assert res.pmfs.shape == (5, 13, 300)
        assert res.pmfs.dtype == np.float32 and res.pmfs.nbytes == 5 * 13 * 300 * 4
        assert_allclose(res.pmfs.sum(axis=2, dtype=float), 1.0, rtol=1e-5)
        assert_allclose(res.pmfs @ res.axis, res.means, atol=1e-5)

    def test_refinement_stability(self):
        m = model_for_snr(0.9, 0.0)
        batch = simulate(m, MeasurementChannel.ONE_BIT, 40, 4, 15)
        coarse = grid_filter(batch, m, GridSpec(num_points=1500))
        fine = grid_filter(batch, m, GridSpec(num_points=3000))
        assert_allclose(coarse.means, fine.means, atol=2e-4)


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
        ops = estimators._grid_operators(axis, model, MeasurementChannel.ONE_BIT)
        matrix = _transition_matrix(axis, model)
        n = axis.size
        x = np.random.default_rng(7).random((n, 9))
        for tiles, oracle in ((ops.forward, matrix), (ops.adjoint, matrix.T)):
            # NaN-filled outputs: a row that no tile writes shows up.
            out = estimators._apply_tiles(tiles, x, np.full_like(x, np.nan))
            assert_allclose(out, oracle @ x, rtol=1e-13, atol=0.0)
            # Unit vectors read every entry back exactly, down to the 1e-17
            # masses at the band edges that a random input cannot see.
            unit = estimators._apply_tiles(tiles, np.eye(n), np.full((n, n), np.nan))
            assert np.array_equal(unit, oracle.toarray())

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
            ops = estimators._grid_operators(axis, model, MeasurementChannel.ONE_BIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for tiles in (ops.forward, ops.adjoint):
            assert sum(block.size for *_, block in tiles) <= 2 * budget
        assert peak <= 8 * 4 * budget

    def test_grid_report_matches_the_csr_oracle(self, monkeypatch):
        m = model_for_snr(0.95, 0.0)
        kwargs = dict(seed=5, num_trials=12, horizon=80, grid=GridSpec(num_points=400),
                      batch_size=5)
        tiled = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", **kwargs)
        build = estimators._grid_operators

        def with_oracle(axis, model, channel):
            matrix = _transition_matrix(axis, model)
            return dataclasses.replace(build(axis, model, channel), forward=matrix,
                                       adjoint=matrix.T.tocsr())

        monkeypatch.setattr(estimators, "_grid_operators", with_oracle)
        monkeypatch.setattr(estimators, "_apply_tiles", _csr_apply)
        oracle = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", **kwargs)
        for field in dataclasses.fields(MseReport):
            a, b = getattr(tiled, field.name), getattr(oracle, field.name)
            if isinstance(a, (float, np.ndarray)):
                assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=field.name)
            else:
                assert a == b

    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_operators_are_built_once_per_call(self, channel, monkeypatch):
        builds = []
        build = estimators._grid_operators

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(estimators, "_grid_operators", counted)
        monte_carlo_mse(model_for_snr(0.9, 0.0), channel, "grid", seed=3, num_trials=7,
                        horizon=40, grid=GridSpec(num_points=200), batch_size=3)
        assert len(builds) == 1


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
        with pytest.raises(ValueError):
            monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "kalman",
                            seed=1, num_trials=4, horizon=50)

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

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_rejects_a_batch_size_below_one(self, batch_size):
        m = model_for_snr(0.95, 0.0)
        with pytest.raises(ValueError, match="batch_size"):
            monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid",
                            seed=1, num_trials=4, horizon=50, batch_size=batch_size)

    @pytest.mark.parametrize("channel,estimator", [
        (MeasurementChannel.UNQUANTIZED, "kalman"), (MeasurementChannel.ONE_BIT, "grid"),
    ])
    def test_builds_the_fims_once(self, channel, estimator, fims_builds):
        monte_carlo_mse(model_for_snr(0.9, 0.0), channel, estimator, seed=3, num_trials=2,
                        horizon=60, lag=0, grid=GridSpec(num_points=200))
        assert len(fims_builds) == 1

    def test_single_trial_reports_nan_se(self):
        m = model_for_snr(0.9, 0.0)
        report = monte_carlo_mse(m, MeasurementChannel.UNQUANTIZED, "kalman",
                                 seed=9, num_trials=1, horizon=120, lag=0)
        assert math.isnan(report.steady_filter_se)
        assert np.all(np.isnan(report.filter_se))

    def test_grid_batching_does_not_change_results(self):
        m = model_for_snr(0.9, 0.0)
        kwargs = dict(seed=17, num_trials=30, horizon=60, grid=GridSpec(num_points=800))
        a = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", batch_size=7, **kwargs)
        b = monte_carlo_mse(m, MeasurementChannel.ONE_BIT, "grid", batch_size=30, **kwargs)
        assert_allclose(a.filter_mse, b.filter_mse, rtol=1e-12)
        assert_allclose(a.smooth_mse, b.smooth_mse, rtol=1e-12)


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
