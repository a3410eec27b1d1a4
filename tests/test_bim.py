"""Finite-horizon information recursions: filter, predict, smooth."""
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import linalg

from bitbounds import (
    BimSequence,
    GaussMarkovModel,
    MeasurementChannel,
    QuadratureRule,
    QuadratureSpec,
    expected_fq,
    expected_fq_batch,
    filter_bim_sequence,
    forward_info_step,
    gain_step,
    model_for_snr,
    per_block_fims,
    predict_bim,
    q_function,
    smooth_bim_compact,
    smoothing_gain,
    state_moments,
    steady_expected_fim,
    steady_lag_gain,
)
from bitbounds._erf import erfcx
from bitbounds.estimators import _lagged_gains

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _golden_model() -> GaussMarkovModel:
    return GaussMarkovModel(alpha=1.0, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)


def _smooth_backward_oracle(model: GaussMarkovModel, filtered: BimSequence) -> np.ndarray:
    """Smoothed information by the direct backward recursion, in 1x1 matrix form.

    With the transition information blocks ``D11 = alpha^2 s``,
    ``D12 = D21 = -alpha s`` and ``D22 = s`` (``s = 1/sigma_z^2``), each step
    augments the filtered information of block ``l`` with the evidence
    gathered after it:

        J(l | K) = J(l | l) + D11 - D12 (D22 + J(l+1 | K) - J(l+1 | l))^{-1} D21,

    where ``J(l+1 | l) = D22 - D21 (J(l | l) + D11)^{-1} D12`` is the one-step
    prediction. This subtractive information form, with Cholesky solves, is
    an independent route to the compact gain form the package ships.
    """
    s = 1.0 / model.sigma_z**2
    d11 = np.array([[model.alpha**2 * s]])
    d12 = d21 = np.array([[-model.alpha * s]])
    d22 = np.array([[s]])

    def solve(matrix, rhs):
        return linalg.cho_solve(linalg.cho_factor(matrix, lower=True), rhs)

    j = filtered.values[:, None, None]
    out = np.empty_like(j)
    out[-1] = j[-1]
    for l in range(len(j) - 2, -1, -1):
        predicted_next = d22 - d21 @ solve(j[l] + d11, d12)
        out[l] = j[l] + d11 - d12 @ solve(d22 + out[l + 1] - predicted_next, d21)
    return out[:, 0, 0]


def _mp_informations(model: GaussMarkovModel, fims: np.ndarray):
    """Filter, prediction and smoothing informations in 50-digit arithmetic.

    Covariance form: the Kalman variance recursion, the same prediction step
    repeated from the last block, and the fixed-interval RTS backward pass.
    The double-precision ``fims`` are taken as exact inputs.
    """
    with mpmath.workdps(50):
        a2, q = mpmath.mpf(model.alpha) ** 2, mpmath.mpf(model.sigma_z) ** 2
        fims = [mpmath.mpf(float(f)) for f in fims]
        k_max = len(fims) - 1
        filt = [mpmath.mpf(model.sigma0) ** 2]
        pred = [None]
        for k in range(1, k_max + 1):
            pred.append(a2 * filt[-1] + q)
            filt.append(1 / (1 / pred[-1] + fims[k]))
        ahead = [filt[-1]]
        for _ in range(k_max):
            ahead.append(a2 * ahead[-1] + q)
        smooth = filt[:]
        for l in range(k_max - 1, -1, -1):
            c2 = a2 * (filt[l] / pred[l + 1]) ** 2
            smooth[l] = filt[l] + c2 * (smooth[l + 1] - pred[l + 1])
        return [np.array([float(1 / v) for v in seq]) for seq in (filt, ahead, smooth)]


# Golden/Fibonacci random walk, the alpha -> 1 corner, a negative alpha, and
# a sharp measurement against a wide prior.
ORACLE_MODELS = (
    GaussMarkovModel(alpha=1.0, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0),
    GaussMarkovModel(alpha=1.0 - 1e-9, sigma_z=1e-3, sigma_eta=1.0, sigma0=1.0),
    GaussMarkovModel(alpha=0.9, sigma_z=0.6, sigma_eta=0.8, sigma0=1.0, mu0=0.5),
    GaussMarkovModel(alpha=-0.7, sigma_z=2.0, sigma_eta=0.1, sigma0=5.0),
    GaussMarkovModel(alpha=0.5, sigma_z=0.05, sigma_eta=10.0, sigma0=0.3),
)


class TestFilterSequence:
    def test_random_walk_traces_fibonacci_ratios(self):
        # With alpha = sigma_z = sigma_eta = sigma0 = 1 the recursion is the
        # golden-ratio continued fraction: J_k = F(2k+2) / F(2k+1).
        seq = filter_bim_sequence(_golden_model(), MeasurementChannel.UNQUANTIZED, 4)
        expected = [1.0, 3.0 / 2.0, 8.0 / 5.0, 21.0 / 13.0, 55.0 / 34.0]
        assert_allclose(seq.values, expected, rtol=1e-14)

    def test_random_walk_converges_to_golden_ratio(self):
        seq = filter_bim_sequence(_golden_model(), MeasurementChannel.UNQUANTIZED, 40)
        assert_allclose(seq.values[-1], GOLDEN, rtol=1e-14)

    def test_starts_from_prior_information(self):
        m = GaussMarkovModel(alpha=0.8, sigma_z=1.0, sigma_eta=1.0, sigma0=0.5)
        seq = filter_bim_sequence(m, MeasurementChannel.UNQUANTIZED, 3)
        assert seq.values[0] == 4.0
        assert len(seq) == 4

    def test_one_bit_never_beats_unquantized(self):
        m = GaussMarkovModel(alpha=0.95, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0)
        unq = filter_bim_sequence(m, MeasurementChannel.UNQUANTIZED, 30)
        q = filter_bim_sequence(m, MeasurementChannel.ONE_BIT, 30)
        assert np.all(q.values[1:] < unq.values[1:])
        assert q.values[0] == unq.values[0]

    def test_variances_invert_information(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.7, sigma_eta=1.2, sigma0=1.0)
        seq = filter_bim_sequence(m, MeasurementChannel.UNQUANTIZED, 10)
        assert seq.values.shape == (11,)
        assert_allclose(seq.variances * seq.values, 1.0, rtol=1e-15)


class TestPerBlockFims:
    def test_unquantized_is_constant_noise_precision(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=1.0, sigma_eta=2.0, sigma0=1.0)
        fims = per_block_fims(m, MeasurementChannel.UNQUANTIZED, 5)
        assert fims.shape == (6,)
        assert_allclose(fims, 0.25, rtol=0)

    def test_one_bit_follows_marginal_moments(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=1.0, sigma_eta=1.0, sigma0=2.0, mu0=0.5)
        fims = per_block_fims(m, MeasurementChannel.ONE_BIT, 4)
        for k in range(5):
            assert_allclose(fims[k], expected_fq(state_moments(m, k), 1.0), rtol=1e-14)

    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_each_recursion_builds_the_fims_once(self, channel, fims_builds):
        m = GaussMarkovModel(alpha=0.9, sigma_z=1.0, sigma_eta=1.0, sigma0=2.0)
        for build in (filter_bim_sequence, smooth_bim_compact):
            fims_builds.clear()
            build(m, channel, 40)
            assert len(fims_builds) == 1

    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    @pytest.mark.parametrize("num_blocks", [1, 2, 40])
    def test_one_quadrature_per_distinct_marginal(self, channel, num_blocks, quadrature_rows):
        # At alpha = 0 block 0 has the prior marginal N(mu0, sigma0^2) and
        # every later block N(0, sigma_z^2): two distinct marginals, one
        # batch of two rows. The unquantized channel needs no quadrature.
        m = GaussMarkovModel(alpha=0.0, sigma_z=0.5, sigma_eta=1.0, sigma0=2.0, mu0=0.5)
        fims = per_block_fims(m, channel, num_blocks)
        assert quadrature_rows == ([2] if channel is MeasurementChannel.ONE_BIT else [])
        assert fims.shape == (num_blocks + 1,)
        assert np.all(fims[1:] == fims[1])


_hermgauss = functools.lru_cache(np.polynomial.hermite.hermgauss)


def _expected_fq_oracle(mean, variance, sigma_eta, spec):
    """``E[F_q]`` of one marginal by the scalar quadrature, one node array per marginal.

    This is the one-marginal body the package ran before it batched the
    marginals of a call, mirrored zero-mean integrands and took both tail
    factors from one erfcx, kept verbatim (residual gain included) so the
    batch is checked against an independent copy, not against itself. It
    calls the package's own ``erfcx`` and ``q_function``, so the bits it
    pins are those of the batching, not of one error-function library. The
    trapezoid rule integrates the same merged integrand as Gauss-Hermite,
    with equally spaced nodes over ``+-half_width_sigmas / sqrt(2)`` in the
    Hermite variable and trapezoid weights times ``exp(-t^2)``.
    """
    if spec.rule is QuadratureRule.GAUSS_HERMITE:
        t, w = _hermgauss(spec.nodes)
    else:
        n, a = spec.nodes, spec.half_width_sigmas / math.sqrt(2.0)
        t = a * (2.0 * np.arange(n) - (n - 1)) / (n - 1)
        w = np.exp(-t * t) * (2.0 * a / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
    precision = 1.0 / sigma_eta**2 + 1.0 / variance
    v_merged = 1.0 / precision
    m_merged = v_merged * mean / variance
    nodes = m_merged + math.sqrt(2.0 * v_merged) * t
    u = np.abs(nodes) / sigma_eta
    values = (1.0 / (np.pi * sigma_eta**2)) / (
        erfcx(u / math.sqrt(2.0)) * q_function(-u)
    )
    weighted = float(np.dot(w, values))
    prefactor = math.sqrt(v_merged / (math.pi * variance)) * math.exp(
        -0.5 * mean**2 / (variance + sigma_eta**2)
    )
    return prefactor * weighted


def _per_block_fims_oracle(model, channel, num_blocks, spec):
    """The per-block form: one scalar quadrature per block, in block order."""
    if channel is MeasurementChannel.UNQUANTIZED:
        return np.array([1.0 / model.sigma_eta**2] * (num_blocks + 1))
    moments = [state_moments(model, k) for k in range(num_blocks + 1)]
    return np.array([_expected_fq_oracle(m.mean, m.variance, model.sigma_eta, spec)
                     for m in moments])


def _filtered_oracle(model, fims):
    """The forward recursion stepped over numpy scalars, one block at a time."""
    values = np.empty(fims.shape[0])
    values[0] = 1.0 / model.sigma0**2
    for k in range(1, fims.shape[0]):
        values[k] = forward_info_step(model, values[k - 1], fims[k])
    return values


def _predicted_oracle(model, start, num_steps):
    values = np.empty(num_steps + 1)
    values[0] = start
    for m in range(1, num_steps + 1):
        values[m] = forward_info_step(model, values[m - 1])
    return values


def _gain_oracle(model, fims, anchor):
    gains = np.empty(anchor + 1)
    gains[anchor] = 0.0
    for l in range(anchor - 1, -1, -1):
        gains[l] = gain_step(model, gains[l + 1], fims[l + 1])
    return gains


_ORACLE_SPECS = (QuadratureSpec(), QuadratureSpec(rule=QuadratureRule.TRAPEZOID, nodes=400),
                 QuadratureSpec(nodes=17), QuadratureSpec(nodes=129))
_ORACLE_SPEC_IDS = ("gauss_hermite", "trapezoid", "gauss_hermite17", "gauss_hermite129")


class TestPerBlockOracle:
    """Batched marginals and float recursions equal the per-block form bit for bit."""

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 0.9, 1.0 - 1e-9, 1.0])
    @pytest.mark.parametrize("mu0", [0.0, 0.5])
    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    @pytest.mark.parametrize("spec", _ORACLE_SPECS, ids=_ORACLE_SPEC_IDS)
    def test_bit_identical_to_per_block_loop(self, alpha, mu0, channel, spec):
        m = GaussMarkovModel(alpha=alpha, sigma_z=0.3, sigma_eta=0.8, sigma0=1.7, mu0=mu0)
        horizon = 120
        fims = _per_block_fims_oracle(m, channel, horizon, spec)
        assert np.array_equal(per_block_fims(m, channel, horizon, spec), fims)
        filtered = filter_bim_sequence(m, channel, horizon, spec)
        assert np.array_equal(filtered.values, _filtered_oracle(m, fims))
        ahead = predict_bim(m, filtered, 80)
        assert np.array_equal(ahead.values, _predicted_oracle(m, filtered.values[-1], 80))
        ahead = predict_bim(m, filter_bim_sequence(m, channel, 17, spec), 80)
        assert np.array_equal(ahead.values, _predicted_oracle(m, filtered.values[17], 80))
        smoothed = smooth_bim_compact(m, channel, horizon, spec)
        want = _filtered_oracle(m, fims) + _gain_oracle(m, fims, horizon)
        assert np.array_equal(smoothed.values, want)
        assert np.array_equal(smoothing_gain(m, fims[:51]), _gain_oracle(m, fims, 50))

    @pytest.mark.parametrize("mu0", [0.0, 0.5])
    def test_long_horizon_spans_several_array_evaluations(self, mu0):
        # At alpha = 1 every block has its own marginal: 1025 rows make two
        # array evaluations of 512 rows and a one-row tail.
        m = GaussMarkovModel(alpha=1.0, sigma_z=0.3, sigma_eta=0.8, sigma0=1.7, mu0=mu0)
        spec = QuadratureSpec()
        channel = MeasurementChannel.ONE_BIT
        assert np.array_equal(per_block_fims(m, channel, 1024, spec),
                              _per_block_fims_oracle(m, channel, 1024, spec))


class TestPrediction:
    def test_zero_steps_returns_anchor_information(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
        filtered = filter_bim_sequence(m, MeasurementChannel.UNQUANTIZED, 10)
        pred = predict_bim(m, filtered, 0)
        assert_allclose(pred.values[0], filtered.values[-1], rtol=0)

    def test_limit_is_stationary_precision(self):
        # Without measurements the information decays to (1-alpha^2)/sigma_z^2.
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0)
        filtered = filter_bim_sequence(m, MeasurementChannel.UNQUANTIZED, 10)
        pred = predict_bim(m, filtered, 400)
        assert_allclose(pred.values[-1], (1 - 0.81) / 0.25, rtol=1e-9)

    def test_information_decays_monotonically(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.5, sigma_eta=1.0, sigma0=1.0)
        filtered = filter_bim_sequence(m, MeasurementChannel.UNQUANTIZED, 10)
        pred = predict_bim(m, filtered, 30).values
        assert np.all(np.diff(pred) < 0)

    def test_random_walk_prediction_is_flatly_degraded(self):
        # alpha = 1 keeps no stationary prior; prediction only adds noise.
        filtered = filter_bim_sequence(_golden_model(), MeasurementChannel.UNQUANTIZED, 20)
        pred = predict_bim(_golden_model(), filtered, 5)
        assert_allclose(np.diff(pred.variances), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_a_smoothed_sequence_predicts_as_the_filtered_one(self, channel):
        # The last smoothing gain is zero, so both sequences end on one value.
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.6, sigma_eta=0.8, sigma0=1.0)
        smoothed = smooth_bim_compact(m, channel, 10)
        filtered = filter_bim_sequence(m, channel, 10)
        assert np.array_equal(predict_bim(m, smoothed, 30).values,
                              predict_bim(m, filtered, 30).values)


class TestSmoothing:
    def test_anchor_block_equals_filtered(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.6, sigma_eta=0.8, sigma0=1.0)
        filtered = filter_bim_sequence(m, MeasurementChannel.UNQUANTIZED, 25)
        smoothed = smooth_bim_compact(m, MeasurementChannel.UNQUANTIZED, 25)
        assert smoothed.values[-1] == filtered.values[-1]
        assert len(smoothed) == 26

    def test_partial_anchor(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.6, sigma_eta=0.8, sigma0=1.0)
        smoothed = smooth_bim_compact(m, MeasurementChannel.UNQUANTIZED, 10)
        full = smooth_bim_compact(m, MeasurementChannel.UNQUANTIZED, 25)
        assert len(smoothed) == 11
        # conditioning on fewer blocks cannot add information
        assert np.all(smoothed.values <= full.values[:11])

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("sigma_z", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("sigma_eta", [0.1, 1.0, 10.0])
    def test_compact_gain_form_matches_backward_recursion(self, alpha, sigma_z, sigma_eta):
        m = GaussMarkovModel(alpha=alpha, sigma_z=sigma_z, sigma_eta=sigma_eta, sigma0=1.0)
        for channel in MeasurementChannel:
            backward = _smooth_backward_oracle(m, filter_bim_sequence(m, channel, 20))
            compact = smooth_bim_compact(m, channel, 20)
            assert_allclose(compact.values, backward, rtol=1e-12)

    def test_gain_is_zero_at_anchor_and_grows_backward(self):
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.6, sigma_eta=0.8, sigma0=1.0)
        fims = per_block_fims(m, MeasurementChannel.UNQUANTIZED, 30)
        gains = smoothing_gain(m, fims)
        assert gains.shape == (31,)
        assert gains[30] == 0.0
        assert np.all(np.diff(gains) <= 1e-12)
        assert np.all(gains[:30] > 0.0)

    def test_stationary_gains_match_steady_lag_gains(self):
        # With a stationary prior every block sees the same expected
        # information, so kappa(l | K) depends only on the lag K - l.
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.6, sigma_eta=0.8,
                             sigma0=math.sqrt(0.36 / 0.19))
        fims = per_block_fims(m, MeasurementChannel.ONE_BIT, 15)
        gains = smoothing_gain(m, fims)
        f = steady_expected_fim(m, MeasurementChannel.ONE_BIT)
        for l in range(16):
            lagged = steady_lag_gain(m, f, 15 - l)
            assert_allclose(gains[l], lagged, rtol=1e-12)

    @pytest.mark.parametrize("alpha, snr_db", [(0.9, -5.0), (0.999, -10.0), (0.5, 10.0)])
    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_stationary_smoothing_is_symmetric_in_time(self, alpha, snr_db, channel):
        # A stationary chain read backward is the same chain, so measured
        # block l given blocks 1..12 is block 13 - l seen in reverse.
        values = smooth_bim_compact(model_for_snr(alpha, snr_db), channel, 12).values
        assert_allclose(values[1:], values[:0:-1], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("lag", [0, 1, 7, 40])
    def test_lagged_gains_equal_fixed_interval_gains(self, lag):
        # A prior far from stationary makes every block's information differ.
        m = GaussMarkovModel(alpha=0.9, sigma_z=0.6, sigma_eta=0.8, sigma0=3.0)
        fims = per_block_fims(m, MeasurementChannel.ONE_BIT, 40)
        lagged = _lagged_gains(m, fims, lag)
        expected = [smoothing_gain(m, fims[: l + lag + 1])[l] for l in range(41 - lag)]
        assert lagged.shape == (41 - lag,)
        assert np.array_equal(lagged, expected)


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("model", ORACLE_MODELS)
    @pytest.mark.parametrize("channel", list(MeasurementChannel))
    def test_filter_predict_smooth_match_50_digit_oracle(self, model, channel):
        horizon = 200
        fims = per_block_fims(model, channel, horizon)
        filtered = filter_bim_sequence(model, channel, horizon)
        ahead = predict_bim(model, filtered, horizon)
        smoothed = smooth_bim_compact(model, channel, horizon)
        want = _mp_informations(model, fims)
        for got, expected in zip((filtered, ahead, smoothed), want):
            assert_allclose(got.values, expected, rtol=1e-14, atol=0)


_PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                              suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _models(draw, stationary_prior=False):
    alpha = draw(st.floats(0.0, 0.999 if stationary_prior else 1.0))
    sigma_z = math.exp(draw(st.floats(math.log(0.05), math.log(5.0))))
    sigma_eta = math.exp(draw(st.floats(math.log(0.1), math.log(10.0))))
    if stationary_prior:
        sigma0 = sigma_z / math.sqrt(1.0 - alpha**2)
    else:
        sigma0 = math.exp(draw(st.floats(math.log(0.1), math.log(10.0))))
    return GaussMarkovModel(alpha=alpha, sigma_z=sigma_z, sigma_eta=sigma_eta, sigma0=sigma0)


@st.composite
def _marginal_batches(draw):
    """A quadrature spec and a batch of marginals whose means are all zero, none or mixed."""
    rule = draw(st.sampled_from(list(QuadratureRule)))
    if rule is QuadratureRule.GAUSS_HERMITE:
        nodes = draw(st.sampled_from((16, 17, 128, 129, 370)))
    else:
        nodes = draw(st.sampled_from((64, 65, 400)))
    means_kind = draw(st.sampled_from(("zero", "nonzero", "mixed")))
    size = draw(st.integers(2 if means_kind == "mixed" else 1, 6))
    variances = [10.0 ** draw(st.floats(-12.0, 12.0)) for _ in range(size)]
    if means_kind == "mixed":
        zero = draw(st.permutations([True, False] + [draw(st.booleans()) for _ in range(size - 2)]))
    else:
        zero = [means_kind == "zero"] * size
    means = [0.0 if z else draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-3, 8.0))
             * math.sqrt(v) for z, v in zip(zero, variances)]
    sigma_eta = 10.0 ** draw(st.floats(-2.0, 2.0))
    return QuadratureSpec(rule=rule, nodes=nodes), means, variances, sigma_eta


class TestProperties:
    @_PROPERTY_SETTINGS
    @given(batch=_marginal_batches())
    def test_batch_quadrature_equals_one_marginal_oracle(self, batch):
        spec, means, variances, sigma_eta = batch
        got = expected_fq_batch(means, variances, sigma_eta, spec)
        want = [_expected_fq_oracle(m, v, sigma_eta, spec) for m, v in zip(means, variances)]
        assert np.array_equal(got, want)

    @_PROPERTY_SETTINGS
    @given(model=_models(), channel=st.sampled_from(list(MeasurementChannel)))
    def test_smoothing_never_loses_information(self, model, channel):
        filtered = filter_bim_sequence(model, channel, 20)
        smoothed = smooth_bim_compact(model, channel, 20)
        assert np.all(filtered.values <= smoothed.values)

    @_PROPERTY_SETTINGS
    @given(model=_models())
    def test_one_bit_never_beats_unquantized(self, model):
        for build in (filter_bim_sequence, smooth_bim_compact):
            one_bit = build(model, MeasurementChannel.ONE_BIT, 20).values
            ideal = build(model, MeasurementChannel.UNQUANTIZED, 20).values
            assert np.all(one_bit <= ideal)

    @_PROPERTY_SETTINGS
    @given(model=_models(), channel=st.sampled_from(list(MeasurementChannel)))
    def test_prediction_moves_monotonically_to_its_limit(self, model, channel):
        limit = (1.0 - model.alpha**2) / model.sigma_z**2
        filtered = filter_bim_sequence(model, channel, 10)
        pred = predict_bim(model, filtered, 60).values
        side = np.sign(pred[0] - limit)
        tol = 1e-12 * max(pred[0], limit)
        assert np.all(side * np.diff(pred) <= tol)
        assert np.all(side * (pred - limit) >= -tol)

    @_PROPERTY_SETTINGS
    @given(model=_models(stationary_prior=True),
           channel=st.sampled_from(list(MeasurementChannel)))
    def test_stationary_gains_depend_on_the_lag_only(self, model, channel):
        horizon = 12
        gains = smoothing_gain(model, per_block_fims(model, channel, horizon))
        fim = steady_expected_fim(model, channel)
        lagged = [steady_lag_gain(model, fim, horizon - l) for l in range(horizon + 1)]
        assert_allclose(gains, lagged, rtol=1e-12, atol=0)


class TestBimSequenceValidation:
    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            BimSequence(np.array([1.0, math.nan]))

    def test_rejects_non_vector_values(self):
        with pytest.raises(ValueError):
            BimSequence(np.ones((3, 1, 1)))
