"""Steady-state fixed points and quantization performance ratios.

Ratio oracles were computed independently with 50-digit arithmetic from
the closed-form quadratic roots and adaptive quadrature of the one-bit
information against the stationary marginal. The plain fixed-point
iterations of the filter and gain maps live here as a second oracle for the
closed-form solvers, on models where they converge.
"""
import dataclasses
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bitbounds import (
    GaussMarkovModel,
    MeasurementChannel,
    gain_step,
    kalman_steady_variance,
    model_for_snr,
    performance_ratios,
    quadratic_filter_root,
    quadratic_gain_root,
    snr_to_sigma_z,
    steady_expected_fim,
    steady_lag_gain,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# alpha = 1 - 1e-5, sigma_eta = 1: snr_db -> (rho_sl_db, rho_f_db, rho_s_db)
RATIO_TABLE = {
    -40.0: (-0.922437853345, -0.742157151167, 1.23053272635),
    -30.0: (-0.975224285221, -0.903836126643, 1.73878189645),
    -20.0: (-0.987842193091, -0.963852809404, 1.9254903474),
    -15.0: (-1.00512669386, -0.991462682983, 1.94920324445),
    0.0: (-1.59135541008, -1.59004297431, 1.39956565562),
    10.0: (-3.33705979515, -3.34989487768, -0.360408562221),
}

# snr_db = -30: rho_s_db strictly increases with alpha
RHO_S_BY_ALPHA = {
    0.9: 0.00346972622169,
    0.999: 0.426457794159,
    0.99999: 1.73878189645,
}


# The 12 points where alpha -> 1 contracts the maps too slowly to iterate.
STIFF_ALPHAS = (1.0 - 1e-7, 1.0 - 1e-9)
STIFF_SNRS_DB = (-40.0, -30.0, -20.0, -10.0, 0.0, 10.0)

# (alpha, snr_db) where the oracle iteration converges quickly; the stiff
# corner alpha = 1 - 1e-5 at -40 dB has its own test.
ITERABLE_MODELS = ((0.0, 0.0), (0.5, 10.0), (0.9, -5.0), (0.999, -10.0),
                   (0.999, 10.0), (0.99999, -15.0))


def _golden_model() -> GaussMarkovModel:
    return GaussMarkovModel(alpha=1.0, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)


def _iterate(step, rate, start: float, tolerance: float = 1e-12,
             max_iterations: int = 1_000_000) -> tuple[float, int]:
    """Fixed point of ``step`` and the iterations it took.

    The maps contract with a factor that approaches 1 at low SNR, so a raw
    step-size test would stop far from the fixed point. The remaining
    distance is bounded by ``delta * rate / (1 - rate)`` with the analytic
    contraction rate at the current iterate; the loop stops once that bound,
    or the step itself, falls to machine granularity.
    """
    eps_floor = 2.0 * sys.float_info.epsilon
    current = start
    for iteration in range(1, max_iterations + 1):
        updated = step(current)
        delta = abs(updated - current)
        scale = max(abs(updated), 1e-300)
        if delta <= eps_floor * scale:
            return updated, iteration
        r = rate(updated)
        if r < 1.0 and delta * r / (1.0 - r) <= tolerance * scale:
            return updated, iteration
        current = updated
    raise AssertionError(f"oracle iteration did not converge in {max_iterations} steps")


def _iterated_filter(model: GaussMarkovModel, fim: float) -> tuple[float, int]:
    """Iterates ``J <- f + s J / (J + alpha^2 s)`` from ``s + f``."""
    s = 1.0 / model.sigma_z**2
    a2s = model.alpha**2 * s
    if not a2s:
        return s + fim, 1
    return _iterate(lambda j: fim + s * j / (j + a2s),
                    lambda j: s * a2s / (j + a2s) ** 2, s + fim)


def _iterated_gain(model: GaussMarkovModel, fim: float) -> tuple[float, int]:
    """Iterates ``kappa <- alpha^2 s (f + kappa) / (s + f + kappa)`` from 0."""
    s = 1.0 / model.sigma_z**2
    a2s = model.alpha**2 * s
    return _iterate(lambda k: a2s * (fim + k) / (s + fim + k),
                    lambda k: a2s * s / (s + fim + k) ** 2, 0.0)


class TestQuadraticRoots:
    def test_golden_ratio_pair(self):
        m = _golden_model()
        f = steady_expected_fim(m, MeasurementChannel.UNQUANTIZED)
        assert_allclose(quadratic_filter_root(m, f), GOLDEN, rtol=1e-15)
        assert_allclose(quadratic_gain_root(m, f), GOLDEN - 1.0, rtol=1e-15)

    def test_roots_satisfy_their_quadratics(self):
        m = GaussMarkovModel(alpha=0.93, sigma_z=0.4, sigma_eta=1.7, sigma0=1.0)
        f = steady_expected_fim(m, MeasurementChannel.ONE_BIT)
        s = 1.0 / m.sigma_z**2
        b = (1.0 - m.alpha**2) * s + f
        c = m.alpha**2 * s * f
        j = quadratic_filter_root(m, f)
        kappa = quadratic_gain_root(m, f)
        assert_allclose(j * j - b * j - c, 0.0, atol=1e-9 * j * j)
        assert_allclose(kappa * kappa + b * kappa - c, 0.0, atol=1e-9 * c)

    def test_sum_identity(self):
        # j + kappa = sqrt(b^2 + 4c), the long-lag smoothing information
        m = GaussMarkovModel(alpha=0.999, sigma_z=0.05, sigma_eta=1.0, sigma0=1.0)
        f = steady_expected_fim(m, MeasurementChannel.UNQUANTIZED)
        s = 1.0 / m.sigma_z**2
        b = (1.0 - m.alpha**2) * s + f
        c = m.alpha**2 * s * f
        j = quadratic_filter_root(m, f)
        kappa = quadratic_gain_root(m, f)
        assert_allclose(j + kappa, math.sqrt(b * b + 4.0 * c), rtol=1e-14)


class TestFixedPointRoots:
    """The closed-form roots against the plain fixed-point iterations."""

    def test_filter_iteration_reaches_golden_ratio(self):
        assert_allclose(_iterated_filter(_golden_model(), 1.0)[0], GOLDEN, rtol=1e-11)

    def test_gain_iteration_reaches_golden_ratio_conjugate(self):
        assert_allclose(_iterated_gain(_golden_model(), 1.0)[0], GOLDEN - 1.0, rtol=1e-11)

    @pytest.mark.parametrize("alpha,snr_db", ITERABLE_MODELS)
    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_roots_match_iteration_oracle(self, alpha, snr_db, channel):
        m = model_for_snr(alpha, snr_db)
        f = steady_expected_fim(m, channel)
        assert_allclose(quadratic_filter_root(m, f), _iterated_filter(m, f)[0], rtol=1e-10)
        assert_allclose(quadratic_gain_root(m, f), _iterated_gain(m, f)[0], rtol=1e-10)

    def test_iterate_agrees_with_root_in_the_stiff_corner(self):
        # alpha -> 1 at very low SNR contracts at 1 - O(1e-4) per step; the
        # oracle iteration still lands within 1e-10 of the closed form.
        m = model_for_snr(1.0 - 1e-5, -40.0)
        for channel in MeasurementChannel:
            f = steady_expected_fim(m, channel)
            value, iterations = _iterated_filter(m, f)
            assert iterations > 10_000
            assert_allclose(quadratic_filter_root(m, f), value, rtol=1e-10)
            assert_allclose(quadratic_gain_root(m, f), _iterated_gain(m, f)[0], rtol=1e-10)

    def test_one_bit_requires_stationary_model(self):
        with pytest.raises(ValueError):
            steady_expected_fim(_golden_model(), MeasurementChannel.ONE_BIT)

    def test_zero_alpha_converges_immediately(self):
        m = GaussMarkovModel(alpha=0.0, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0)
        f = steady_expected_fim(m, MeasurementChannel.UNQUANTIZED)
        assert_allclose(quadratic_filter_root(m, f), 4.0 + 1.0, rtol=1e-14)
        assert quadratic_gain_root(m, f) == 0.0


# Alphas where the closed-form lag gain meets the gain-step loop, over -60 to
# +40 dB and lags 0 to 1000. At 1e-30 the per-step factor k rounds to 0; at
# 1 - 1e-9 it is within 1e-7 of 1.
LAG_GAIN_ALPHAS = (0.0, 1e-30, 1e-3, 0.5, -0.5, -0.999, 0.9, 0.999, 0.99999, 1.0 - 1e-9)


class TestLagGain:
    def test_zero_lag_is_zero(self):
        m = model_for_snr(0.999, -10.0)
        assert steady_lag_gain(m, 1.0, 0) == 0.0

    @pytest.mark.parametrize("alpha", LAG_GAIN_ALPHAS)
    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_closed_form_matches_the_gain_step_loop(self, alpha, channel):
        for snr_db in range(-60, 41, 10):
            m = model_for_snr(alpha, snr_db)
            fim = steady_expected_fim(m, channel)
            loop = [0.0]
            for _ in range(1000):
                loop.append(gain_step(m, loop[-1], fim))
            closed = [steady_lag_gain(m, fim, lag) for lag in range(1001)]
            assert_allclose(closed, loop, rtol=1e-12, atol=0, err_msg=f"snr {snr_db} dB")

    def test_single_lag_closed_form(self):
        m = model_for_snr(0.999, -10.0)
        f = steady_expected_fim(m, MeasurementChannel.UNQUANTIZED)
        s = 1.0 / m.sigma_z**2
        a2s = m.alpha**2 * s
        assert_allclose(steady_lag_gain(m, f, 1),
                        a2s * f / (s + f), rtol=1e-14)

    def test_monotone_toward_fixed_point(self):
        m = model_for_snr(0.999, -10.0)
        f = steady_expected_fim(m, MeasurementChannel.ONE_BIT)
        kappa = quadratic_gain_root(m, f)
        gains = [steady_lag_gain(m, f, lag)
                 for lag in (0, 1, 2, 5, 20, 100, 1000)]
        assert all(a < b for a, b in zip(gains, gains[1:]))
        assert gains[-1] < kappa
        assert_allclose(gains[-1], kappa, rtol=1e-9)

    def test_rejects_negative_lag(self):
        m = model_for_snr(0.999, -10.0)
        with pytest.raises(ValueError):
            steady_lag_gain(m, 1.0, -1)


_PROPERTY_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                              suppress_health_check=[HealthCheck.too_slow])

# Uniform over the stationary range, and 1 - |alpha| log-spaced down to
# 1e-12, where the ratios reach the paper's alpha -> 1 limits.
_ALPHAS = st.one_of(
    st.floats(-1.0 + 1e-12, 1.0 - 1e-12),
    st.builds(lambda sign, gap: sign * (1.0 - gap), st.sampled_from((-1.0, 1.0)),
              st.floats(-12.0, 0.0).map(lambda e: 10.0**e)),
)


class TestPerformanceRatios:
    @pytest.mark.parametrize("snr_db,expected", sorted(RATIO_TABLE.items()))
    def test_frozen_ratio_oracles(self, snr_db, expected):
        report = performance_ratios(model_for_snr(1.0 - 1e-5, snr_db))
        assert_allclose(
            [report.rho_sl_db, report.rho_f_db, report.rho_s_db], expected, atol=1e-9
        )

    def test_report_invariants(self):
        report = performance_ratios(model_for_snr(0.999, -5.0))
        assert report.rho_f_db <= 0.0
        assert report.rho_sl_db <= 0.0
        assert report.snr_db == pytest.approx(-5.0, abs=1e-9)
        assert_allclose(report.j_smooth_unq, report.j_filter_unq + report.kappa_unq,
                        rtol=1e-12)
        assert_allclose(report.j_smooth_q, report.j_filter_q + report.kappa_q,
                        rtol=1e-12)
        assert report.iterations_used == (0, 0, 0, 0)

    @pytest.mark.parametrize("field", ["snr_db", "rho_s_db", "kappa_q"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_report_rejects_non_finite_values(self, field, bad):
        report = performance_ratios(model_for_snr(0.999, -5.0))
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(report, **{field: bad})

    def test_smoothing_advantage_grows_with_alpha(self):
        values = [performance_ratios(model_for_snr(a, -30.0)).rho_s_db
                  for a in sorted(RHO_S_BY_ALPHA)]
        assert values[0] < values[1] < values[2]
        for got, (alpha, expected) in zip(values, sorted(RHO_S_BY_ALPHA.items())):
            assert_allclose(got, expected, atol=1e-9)

    def test_requires_stationary_model(self):
        with pytest.raises(ValueError):
            performance_ratios(_golden_model())

    @pytest.mark.parametrize("alpha", STIFF_ALPHAS)
    @pytest.mark.parametrize("snr_db", STIFF_SNRS_DB)
    def test_stiff_points_are_finite_and_ordered(self, alpha, snr_db):
        report = performance_ratios(model_for_snr(alpha, snr_db))
        ratios = (report.rho_f_db, report.rho_sl_db, report.rho_s_db)
        assert all(math.isfinite(v) for v in ratios)
        assert report.rho_f_db <= 0.0 and report.rho_sl_db <= 0.0
        assert report.rho_s_db >= report.rho_f_db

    @_PROPERTY_SETTINGS
    @given(alpha=_ALPHAS, snr_db=st.floats(-60.0, 40.0),
           sigma_eta=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    def test_ratio_invariants_over_the_documented_range(self, alpha, snr_db, sigma_eta):
        report = performance_ratios(model_for_snr(alpha, snr_db, sigma_eta))
        assert 0.0 < report.j_filter_q <= report.j_filter_unq
        assert report.rho_s_db >= report.rho_f_db
        assert report.rho_f_db <= 0.0 and report.rho_sl_db <= 0.0
        assert report.rho_s_db <= 10.0 * math.log10(2.0 * math.sqrt(2.0 / math.pi))
        unit = performance_ratios(model_for_snr(alpha, snr_db))
        assert_allclose([report.rho_f_db, report.rho_sl_db, report.rho_s_db],
                        [unit.rho_f_db, unit.rho_sl_db, unit.rho_s_db], rtol=0.0, atol=1e-12)

    def test_near_unit_alpha_low_snr_approaches_asymptote(self):
        # The roots by hand, as the solver takes them: the plain iteration
        # would not converge here.
        m = model_for_snr(1.0 - 1e-9, -40.0)
        f_unq = steady_expected_fim(m, MeasurementChannel.UNQUANTIZED)
        f_q = steady_expected_fim(m, MeasurementChannel.ONE_BIT)
        j_unq = quadratic_filter_root(m, f_unq)
        j_q = quadratic_filter_root(m, f_q)
        k_unq = quadratic_gain_root(m, f_unq)
        k_q = quadratic_gain_root(m, f_q)
        rho_sl = 10.0 * math.log10((j_q + k_q) / (j_unq + k_unq))
        rho_f = 10.0 * math.log10(j_q / j_unq)
        rho_s = 10.0 * math.log10((j_q + k_q) / j_unq)
        assert_allclose(rho_sl, -0.980672091998, atol=1e-6)
        assert_allclose(rho_f, -0.978218308974, atol=1e-6)
        assert_allclose(rho_s, 2.01992664129, atol=1e-6)


# Lags from one step to far past every steady gain's convergence.
_LAGS = (0, 1, 2, 3, 10, 100, 10**3, 10**4, 10**6, 10**9, 10**12, 10**15)


class TestSteadyInvariants:
    """Fixed-point identities over the documented range of alpha and SNR."""

    @_PROPERTY_SETTINGS
    @given(alpha=_ALPHAS, snr_db=st.floats(-40.0, 40.0))
    def test_riccati_variance_is_the_inverse_filtering_information(self, alpha, snr_db):
        # The covariance-form Riccati fixed point and the information-form
        # root are independent closed forms of one steady filter.
        m = model_for_snr(alpha, snr_db)
        product = kalman_steady_variance(m) * quadratic_filter_root(m, 1.0 / m.sigma_eta**2)
        assert_allclose(product, 1.0, rtol=1e-12, atol=0.0)

    @_PROPERTY_SETTINGS
    @given(alpha=_ALPHAS, snr_db=st.floats(-40.0, 40.0))
    def test_lag_gain_rises_toward_its_fixed_point(self, alpha, snr_db):
        m = model_for_snr(alpha, snr_db)
        for channel in MeasurementChannel:
            fim = steady_expected_fim(m, channel)
            gains = [steady_lag_gain(m, fim, lag) for lag in _LAGS]
            assert all(a <= b for a, b in zip(gains, gains[1:])), (channel, gains)
            assert gains[-1] <= quadratic_gain_root(m, fim), (channel, gains)


class TestUnitAlphaLimitCurves:
    """As alpha -> 1 at a fixed SNR the ratios approach curves of one number.

    With ``G = sigma_eta^2 E[F_q]`` (the one-bit information relative to the
    unquantized one) both channels' roots grow as ``sqrt(s f)``, so ``rho_f``
    and ``rho_sl`` tend to ``5 log10 G`` and ``rho_s``, whose smoothed
    information is twice the filtered one, to ``5 log10 G + 10 log10 2``.
    """

    @pytest.mark.parametrize("snr_db", [-40.0, -20.0, 0.0, 10.0])
    def test_ratios_converge_to_the_limit_curves(self, snr_db):
        distances = []
        for gap in (1e-5, 1e-7, 1e-9):
            m = model_for_snr(1.0 - gap, snr_db)
            half_g_db = 5.0 * math.log10(
                m.sigma_eta**2 * steady_expected_fim(m, MeasurementChannel.ONE_BIT))
            report = performance_ratios(m)
            distances.append([abs(report.rho_f_db - half_g_db),
                              abs(report.rho_sl_db - half_g_db),
                              abs(report.rho_s_db - half_g_db - 10.0 * math.log10(2.0))])
        for wider, closer in zip(distances, distances[1:]):
            assert all(c <= w / 5.0 for w, c in zip(wider, closer)), distances
        assert max(distances[-1]) < 0.01, distances


class TestSnrParameterization:
    def test_round_trip(self):
        for alpha, snr_db, sigma_eta in ((0.9, -17.0, 2.0), (0.999, 3.0, 0.5)):
            sigma_z = snr_to_sigma_z(alpha, snr_db, sigma_eta)
            var = sigma_z**2 / (1.0 - alpha**2)
            assert_allclose(10.0 * math.log10(var / sigma_eta**2), snr_db, atol=1e-12)

    def test_model_for_snr_is_stationary_from_block_zero(self):
        m = model_for_snr(0.99, -10.0)
        assert m.is_stationary
        assert m.mu0 == 0.0
        assert_allclose(m.sigma0**2, m.sigma_z**2 / (1.0 - m.alpha**2), rtol=1e-12)

    def test_rejects_nonstationary_alpha(self):
        with pytest.raises(ValueError):
            snr_to_sigma_z(1.0, -10.0)
