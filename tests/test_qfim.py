"""One-bit Fisher information and its Gaussian-marginal expectation.

Reference values were computed independently with 50-digit arithmetic:
the pointwise information from its defining tail-probability form, the
expectations by adaptive quadrature of that form against the marginal.
"""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bitbounds import (
    MeasurementChannel,
    QuadratureRule,
    QuadratureSpec,
    StateMoments,
    expected_fim,
    expected_fq,
    expected_fq_batch,
    fq,
    q_function,
)
from bitbounds import qfim
from bitbounds.exceptions import QuadratureError

# (mean, variance, sigma_eta) -> E[F_q], 50-digit quadrature
EXPECTED_FQ_TABLE = [
    (0.0, 1e-4, 1.0, 0.63659663994203786),
    (0.0, 1e-2, 1.0, 0.63431716560999606),
    (0.0, 1.0, 1.0, 0.48053795807491033),
    (0.0, 1e2, 1.0, 0.071628316774098241),
    (0.0, 1e4, 1.0, 0.0072060315136152413),
    (0.5, 1.0, 1.0, 0.45491959847103074),
    (2.0, 0.25, 1.0, 0.15660527046398481),
    (-3.0, 9.0, 1.0, 0.14515192895639518),
    (0.0, 1.0, 2.0, 0.14623115629103295),
    (1.0, 4.0, 0.5, 0.61842677393576336),
]


class TestQFunction:
    def test_symmetry_and_anchor_values(self):
        assert q_function(0.0) == 0.5
        assert_allclose(q_function(1.0), 0.15865525393145705, rtol=1e-14)
        assert_allclose(q_function(-1.0) + q_function(1.0), 1.0, rtol=1e-14)

    def test_deep_tail_stays_positive(self):
        tail = q_function(37.0)
        assert 0.0 < tail < 1e-290

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 2.0])
        assert_allclose(q_function(x), [1 - q_function(2.0), 0.5, q_function(2.0)],
                        rtol=1e-14)


class TestPointwiseInformation:
    def test_peak_value(self):
        for sigma_eta in (0.5, 1.0, 2.0):
            assert_allclose(fq(0.0, sigma_eta), 2.0 / (math.pi * sigma_eta**2),
                            rtol=1e-14)

    def test_frozen_oracles(self):
        assert_allclose(fq(1.0, 1.0), 0.43862886110221396, rtol=1e-13)
        assert_allclose(fq(8.0, 1.0), 4.1031353272209136e-14, rtol=1e-13)
        assert_allclose(fq(37.0, 1.0), 7.8497456477810117e-297, rtol=1e-12)

    def test_even_in_theta(self):
        theta = np.linspace(0.1, 30.0, 40)
        assert_allclose(fq(theta, 1.3), fq(-theta, 1.3), rtol=1e-13)

    def test_scalar_in_scalar_out(self):
        out = fq(1.5, 1.0)
        assert isinstance(out, float)

    def test_scale_invariance(self):
        # F depends on theta only through theta / sigma_eta, up to 1/sigma_eta^2.
        theta, se = 1.7, 2.4
        assert_allclose(fq(theta, se), fq(theta / se, 1.0) / se**2, rtol=1e-13)

    def test_finite_far_into_the_tails(self):
        theta = np.array([50.0, 100.0, 200.0])
        out = fq(theta, 1.0)
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0.0)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rule is QuadratureRule.GAUSS_HERMITE
        assert spec.nodes == 128
        assert spec.half_width_sigmas == 10.0

    @pytest.mark.parametrize("nodes", [8, 371, 512, 1024])
    def test_rejects_gauss_hermite_nodes_out_of_range(self, nodes):
        with pytest.raises(ValueError):
            QuadratureSpec(rule=QuadratureRule.GAUSS_HERMITE, nodes=nodes)

    def test_largest_gauss_hermite_node_count_matches_default(self):
        # numpy's Hermite weights are all zero at 371 nodes and non-finite
        # beyond; 370 is the largest count whose weights are all positive.
        spec = QuadratureSpec(rule=QuadratureRule.GAUSS_HERMITE, nodes=370)
        for mean, variance, sigma_eta in [(0.0, 1.0, 1.0), (0.7, 25.0, 1.0), (-2.0, 0.3, 0.5)]:
            mom = StateMoments(0, mean, variance)
            assert_allclose(expected_fq(mom, sigma_eta, spec), expected_fq(mom, sigma_eta),
                            rtol=1e-10)

    def test_rejects_tiny_trapezoid_grid(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rule=QuadratureRule.TRAPEZOID, nodes=32)

    @pytest.mark.parametrize("hw", [2.0, 20.0])
    def test_rejects_half_width_out_of_range(self, hw):
        with pytest.raises(ValueError):
            QuadratureSpec(half_width_sigmas=hw)


class TestExpectedInformation:
    @pytest.mark.parametrize("mean,variance,sigma_eta,truth", EXPECTED_FQ_TABLE)
    def test_frozen_oracles(self, mean, variance, sigma_eta, truth):
        got = expected_fq(StateMoments(0, mean, variance), sigma_eta)
        assert_allclose(got, truth, rtol=1e-12)

    def test_never_exceeds_peak(self):
        for mean, variance, sigma_eta, truth in EXPECTED_FQ_TABLE:
            assert truth < 2.0 / (math.pi * sigma_eta**2)

    def test_symmetric_in_mean(self):
        spec = QuadratureSpec()
        plus = expected_fq(StateMoments(0, 1.4, 2.0), 1.0, spec)
        minus = expected_fq(StateMoments(0, -1.4, 2.0), 1.0, spec)
        assert_allclose(plus, minus, rtol=1e-13)

    def test_concentrated_marginal_recovers_pointwise_value(self):
        got = expected_fq(StateMoments(0, 0.8, 1e-12), 1.0)
        assert_allclose(got, fq(0.8, 1.0), rtol=1e-6)

    def test_repeated_calls_are_stable(self):
        mom = StateMoments(0, 0.3, 2.5)
        assert expected_fq(mom, 1.0) == expected_fq(mom, 1.0)

    def test_unquantized_channel_is_noise_precision(self):
        mom = StateMoments(0, 0.0, 123.0)
        assert expected_fim(MeasurementChannel.UNQUANTIZED, mom, 2.0) == 0.25

    def test_one_bit_channel_dispatches_to_quadrature(self):
        mom = StateMoments(0, 0.0, 1.0)
        got = expected_fim(MeasurementChannel.ONE_BIT, mom, 1.0)
        assert_allclose(got, 0.48053795807491033, rtol=1e-12)


class TestQuadratureAgreement:
    """Gauss-Hermite default vs a brute-force trapezoid oracle."""

    TRAPEZOID = QuadratureSpec(rule=QuadratureRule.TRAPEZOID, nodes=100_000,
                               half_width_sigmas=10.0)

    @pytest.mark.parametrize("variance", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_rules_agree_across_variance_ratios(self, variance):
        mom = StateMoments(0, 0.0, variance)
        gh = expected_fq(mom, 1.0, QuadratureSpec())
        trap = expected_fq(mom, 1.0, self.TRAPEZOID)
        assert np.isfinite(gh) and np.isfinite(trap)
        assert_allclose(gh, trap, rtol=1e-8)

    @pytest.mark.parametrize("variance", [1e-4, 1.0, 1e4])
    def test_agreement_survives_offset_means(self, variance):
        mom = StateMoments(0, 3.0 * math.sqrt(variance), variance)
        gh = expected_fq(mom, 1.0, QuadratureSpec())
        trap = expected_fq(mom, 1.0, self.TRAPEZOID)
        assert_allclose(gh, trap, rtol=1e-7)

    def test_frozen_default_rule_is_numpys_bit_for_bit(self):
        t, w, _ = qfim._hermgauss(128)
        want_t, want_w = np.polynomial.hermite.hermgauss(128)
        assert t.tobytes() == want_t.tobytes() and w.tobytes() == want_w.tobytes()

    def test_node_count_already_converged(self):
        # Halving the default node count must not move the result.
        mom = StateMoments(0, 0.0, 1e2)
        full = expected_fq(mom, 1.0, QuadratureSpec(nodes=128))
        half = expected_fq(mom, 1.0, QuadratureSpec(nodes=64))
        assert_allclose(full, half, rtol=1e-10)


class TestQuadratureFailure:
    """A non-finite integrand raises ``QuadratureError`` naming the bad node."""

    RULES = {
        QuadratureRule.GAUSS_HERMITE: ("_residual_gain", QuadratureSpec()),
        QuadratureRule.TRAPEZOID: ("fq", QuadratureSpec(rule=QuadratureRule.TRAPEZOID, nodes=512)),
    }

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    def test_nan_mean_raises_with_its_node(self, rule):
        _, spec = self.RULES[rule]
        with pytest.raises(QuadratureError) as err:
            expected_fq(StateMoments(0, float("nan"), 1.0), 1.0, spec)
        assert math.isnan(err.value.node)

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    def test_one_infinite_value_raises_with_its_node(self, rule, monkeypatch):
        name, spec = self.RULES[rule]
        original = getattr(qfim, name)
        seen = []

        def one_infinite(theta, sigma_eta):
            values = np.array(original(theta, sigma_eta))
            values[..., 37] = np.inf
            seen.append(theta[..., 37].item())
            return values

        monkeypatch.setattr(qfim, name, one_infinite)
        # moments no other test uses, so no cached value hides the integrand
        with pytest.raises(QuadratureError) as err:
            expected_fq(StateMoments(0, 0.3173, 2.0417), 1.0, spec)
        assert err.value.node == seen[0]

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    @pytest.mark.parametrize("means", [[0.0, 0.0, 0.0], [0.41, -1.3, 2.2]], ids=["zero", "nonzero"])
    @pytest.mark.parametrize("bad_row", [0, 1, 2])
    def test_batch_raises_with_the_node_of_its_bad_row(self, rule, means, bad_row, monkeypatch):
        name, spec = self.RULES[rule]
        original = getattr(qfim, name)
        done, seen = [0], []

        def one_infinite(theta, sigma_eta):
            # Gauss-Hermite sees every row at once, the trapezoid one row per call.
            values = np.array(original(theta, sigma_eta))
            rows = values.reshape(-1, values.shape[-1])
            first = done[0]
            done[0] += rows.shape[0]
            if first <= bad_row < done[0]:
                rows[bad_row - first, 37] = np.inf
                seen.append(float(np.reshape(theta, rows.shape)[bad_row - first, 37]))
            return values

        monkeypatch.setattr(qfim, name, one_infinite)
        with pytest.raises(QuadratureError) as err:
            expected_fq_batch(means, [0.7, 2.0, 5.0], 1.0, spec)
        # A zero-mean Gauss-Hermite batch evaluates the nonnegative nodes and
        # mirrors them: the first non-finite node is the mirror image.
        mirrored = rule is QuadratureRule.GAUSS_HERMITE and not any(means)
        assert err.value.node == (-seen[0] if mirrored else seen[0])

    @pytest.mark.parametrize("rule", list(QuadratureRule))
    def test_nan_mean_inside_a_batch_raises_with_its_node(self, rule):
        _, spec = self.RULES[rule]
        with pytest.raises(QuadratureError) as err:
            expected_fq_batch([0.0, float("nan"), 0.0], [1.0, 1.0, 1.0], 1.0, spec)
        assert math.isnan(err.value.node)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("rule", list(QuadratureRule))
    def test_overflowing_sum_of_finite_values_raises_without_a_node(self, rule, monkeypatch):
        name, spec = self.RULES[rule]
        # Every value is the largest float, scaled by at most 0.73 (the peak
        # of the trapezoid's density at variance 0.3); their sum overflows.
        biggest = np.finfo(float).max
        monkeypatch.setattr(qfim, name, lambda theta, sigma_eta: np.full(np.shape(theta), biggest))
        with pytest.raises(QuadratureError) as err:
            expected_fq(StateMoments(0, 0.0, 0.30017), 1.0, spec)
        assert err.value.node is None


class TestBatch:
    @pytest.mark.parametrize("rule", list(QuadratureRule))
    def test_entries_equal_one_marginal_calls(self, rule):
        spec = QuadratureSpec(rule=rule, nodes=129)
        means, variances = [0.0, 0.3, -2.0, 0.0], [1e-6, 2.5, 9.0, 1e6]
        got = expected_fq_batch(means, variances, 0.7, spec)
        assert got.shape == (4,)
        for value, mean, variance in zip(got, means, variances):
            assert value == expected_fq(StateMoments(0, mean, variance), 0.7, spec)

    def test_empty_batch(self):
        assert expected_fq_batch([], [], 1.0).shape == (0,)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_variance(self, variance):
        with pytest.raises(ValueError, match="variances"):
            expected_fq_batch([0.0, 0.0], [1.0, variance], 1.0)

    @pytest.mark.parametrize("sigma_eta", [0.0, -1.0])
    def test_rejects_nonpositive_sigma_eta(self, sigma_eta):
        with pytest.raises(ValueError, match="sigma_eta"):
            expected_fq_batch([0.0], [1.0], sigma_eta)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="1-D"):
            expected_fq_batch([0.0, 1.0], [1.0], 1.0)
