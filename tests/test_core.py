"""Model container, the two recursion steps, and marginal moments."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bitbounds import (
    GaussMarkovModel,
    StateMoments,
    forward_info_step,
    gain_step,
    state_moments,
    stationary_variance,
)


class TestGaussMarkovModel:
    def test_accepts_unit_alpha(self):
        m = GaussMarkovModel(alpha=1.0, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
        assert not m.is_stationary

    def test_accepts_negative_alpha(self):
        m = GaussMarkovModel(alpha=-0.7, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0)
        assert m.is_stationary

    def test_default_prior_mean_is_zero(self):
        m = GaussMarkovModel(alpha=0.5, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
        assert m.mu0 == 0.0

    @pytest.mark.parametrize("alpha", [1.0000001, -1.5, math.nan])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError):
            GaussMarkovModel(alpha=alpha, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)

    @pytest.mark.parametrize("field", ["sigma_z", "sigma_eta", "sigma0"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_scales(self, field, bad):
        kwargs = dict(alpha=0.5, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
        kwargs[field] = bad
        with pytest.raises(ValueError):
            GaussMarkovModel(**kwargs)

    def test_rejects_nonfinite_mu0(self):
        with pytest.raises(ValueError):
            GaussMarkovModel(alpha=0.5, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0, mu0=math.inf)

    def test_frozen(self):
        m = GaussMarkovModel(alpha=0.5, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
        with pytest.raises(Exception):
            m.alpha = 0.9


class TestRecursionSteps:
    def test_forward_step_is_the_kalman_variance_step(self):
        # Information form of P_pred = alpha^2 P + sigma_z^2, P_post = 1/(1/P_pred + F).
        m = GaussMarkovModel(alpha=0.8, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0)
        p = 0.3
        p_pred = 0.64 * p + 0.25
        assert_allclose(forward_info_step(m, 1.0 / p, 2.0), 1.0 / p_pred + 2.0, rtol=1e-15)
        assert_allclose(forward_info_step(m, 1.0 / p), 1.0 / p_pred, rtol=1e-15)

    def test_gain_step_values(self):
        # alpha^2 s (F + kappa) / (s + F + kappa) with s = 4, F = 2.
        m = GaussMarkovModel(alpha=0.8, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0)
        assert_allclose(gain_step(m, 0.0, 2.0), 0.64 * 4.0 * 2.0 / 6.0, rtol=1e-15)
        assert_allclose(gain_step(m, 1.0, 2.0), 0.64 * 4.0 * 3.0 / 7.0, rtol=1e-15)
        assert gain_step(GaussMarkovModel(alpha=0.0, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0),
                         1.0, 2.0) == 0.0

    def test_steps_act_elementwise_on_arrays(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.7, sigma_eta=1.0, sigma0=1.0)
        j = np.array([0.5, 1.0, 4.0])
        f = np.array([0.0, 0.3, 2.0])
        for step in (forward_info_step, gain_step):
            assert np.array_equal(step(m, j, f), [step(m, a, b) for a, b in zip(j, f)])


class TestStateMoments:
    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            StateMoments(block_index=-1, mean=0.0, variance=1.0)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            StateMoments(block_index=0, mean=0.0, variance=0.0)


class TestMarginalMoments:
    def test_block_zero_is_prior(self):
        m = GaussMarkovModel(alpha=0.5, sigma_z=1.0, sigma_eta=1.0, sigma0=2.0, mu0=3.0)
        mom = state_moments(m, 0)
        assert mom.mean == 3.0
        assert mom.variance == 4.0

    def test_one_step_recursion(self):
        m = GaussMarkovModel(alpha=0.8, sigma_z=0.5, sigma_eta=1.0, sigma0=1.5, mu0=-2.0)
        for k in range(1, 12):
            prev = state_moments(m, k - 1)
            cur = state_moments(m, k)
            assert_allclose(cur.mean, m.alpha * prev.mean, rtol=1e-12)
            assert_allclose(cur.variance, m.alpha**2 * prev.variance + m.sigma_z**2,
                            rtol=1e-12)

    def test_unit_alpha_grows_linearly(self):
        m = GaussMarkovModel(alpha=1.0, sigma_z=0.3, sigma_eta=1.0, sigma0=2.0)
        assert_allclose(state_moments(m, 50).variance, 4.0 + 50 * 0.09, rtol=1e-14)

    def test_negative_unit_alpha_grows_linearly(self):
        m = GaussMarkovModel(alpha=-1.0, sigma_z=0.3, sigma_eta=1.0, sigma0=2.0, mu0=1.0)
        mom = state_moments(m, 3)
        assert_allclose(mom.variance, 4.0 + 3 * 0.09, rtol=1e-14)
        assert mom.mean == -1.0

    def test_zero_alpha_forgets_prior(self):
        m = GaussMarkovModel(alpha=0.0, sigma_z=0.7, sigma_eta=1.0, sigma0=5.0, mu0=4.0)
        mom = state_moments(m, 1)
        assert mom.mean == 0.0
        assert_allclose(mom.variance, 0.49, rtol=1e-15)

    def test_large_index_reaches_stationary_variance(self):
        m = GaussMarkovModel(alpha=0.99, sigma_z=0.2, sigma_eta=1.0, sigma0=0.1)
        target = stationary_variance(m)
        assert_allclose(state_moments(m, 5000).variance, target, rtol=1e-12)

    def test_huge_index_underflows_cleanly(self):
        m = GaussMarkovModel(alpha=0.5, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0, mu0=1.0)
        mom = state_moments(m, 10**6)
        assert mom.mean == 0.0
        assert_allclose(mom.variance, stationary_variance(m), rtol=1e-15)

    def test_rejects_negative_k(self):
        m = GaussMarkovModel(alpha=0.5, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
        with pytest.raises(ValueError):
            state_moments(m, -1)


class TestStationaryVariance:
    def test_closed_form(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0)
        assert_allclose(stationary_variance(m), 0.25 / 0.19, rtol=1e-15)

    def test_rejects_unit_alpha(self):
        m = GaussMarkovModel(alpha=1.0, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
        with pytest.raises(ValueError):
            stationary_variance(m)

