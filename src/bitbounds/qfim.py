"""Per-sample Fisher information of the one-bit measurement channel.

A measurement ``r = sign(theta + eta)`` with ``eta ~ N(0, sigma_eta^2)`` is a
Bernoulli observation with success probability ``Phi(theta / sigma_eta)``. Its
Fisher information about ``theta`` is

    F_q(theta) = exp(-theta^2 / sigma_eta^2)
                 / (2 pi sigma_eta^2 Q(theta/sigma_eta) Q(-theta/sigma_eta)),

which peaks at ``F_q(0) = 2 / (pi sigma_eta^2)`` and decays like a Gaussian
half-width away from the threshold. Bound recursions need the expectation of
``F_q`` under the Gaussian marginal of the state, computed here by quadrature:
:func:`expected_fq` for one marginal (memoized), :func:`expected_fq_batch` for
all marginals of a finite-horizon bound in one array evaluation. Both run the
same quadrature, one marginal being a one-row batch, and give bit-identical
values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _erf
from ._tables import HERMGAUSS_128
from .core import StateMoments, _integer
from .exceptions import QuadratureError

__all__ = [
    "QuadratureRule",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "q_function",
    "fq",
    "expected_fq",
    "expected_fq_batch",
]


class QuadratureRule(enum.Enum):
    GAUSS_HERMITE = "gauss_hermite"
    TRAPEZOID = "trapezoid"


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature rule selection for Gaussian expectations of ``F_q``.

    Parameters
    ----------
    rule : QuadratureRule
        ``GAUSS_HERMITE`` is the fast default; ``TRAPEZOID`` is the
        brute-force cross-check rule.
    nodes : int
        Node count. Gauss-Hermite accepts 16..370: numpy's Hermite weights
        are all positive up to 370 nodes, all zero at 371 and non-finite
        beyond; from 22 nodes up the result agrees with the default 128 to
        1e-10 at moderate state spreads. Trapezoid accepts 64..1_000_000.
    half_width_sigmas : float
        Trapezoid integration range, ``m' +- half_width_sigmas * sqrt(v')``
        about the Gaussian ``N(m', v')`` that both rules integrate against
        (see :func:`_quadrature`). Must lie in [4, 16]. Gauss-Hermite has
        no range to set, so it takes only the default 10.
    """

    rule: QuadratureRule = QuadratureRule.GAUSS_HERMITE
    nodes: int = 128
    half_width_sigmas: float = 10.0

    def __post_init__(self):
        gauss_hermite = self.rule is QuadratureRule.GAUSS_HERMITE
        low, high = (16, 370) if gauss_hermite else (64, 1_000_000)
        object.__setattr__(self, "nodes", _integer("nodes", self.nodes, low, high))
        if gauss_hermite and self.half_width_sigmas != 10.0:
            raise ValueError(f"half_width_sigmas is a trapezoid setting; Gauss-Hermite "
                             f"takes only 10, got {self.half_width_sigmas}.")
        if not 4.0 <= self.half_width_sigmas <= 16.0:
            raise ValueError(
                f"half_width_sigmas must be in [4, 16], got {self.half_width_sigmas}."
            )


DEFAULT_QUADRATURE = QuadratureSpec()


def q_function(x):
    """Gaussian tail probability ``Q(x) = P(N(0,1) > x)``.

    Evaluated as ``0.5 * erfc(x / sqrt(2))``, which stays positive and
    accurate far into the tail (no underflow to zero for ``|x| <= 37``);
    ``q_function(0.0)`` is exactly 0.5.

    Parameters
    ----------
    x : float or ndarray

    Returns
    -------
    float or ndarray
    """
    return 0.5 * _erf.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def fq(theta, sigma_eta: float):
    """Per-sample Fisher information of the one-bit channel at state ``theta``.

    Computed as ``exp(-theta^2 / (2 sigma_eta^2))`` times the residual gain,
    whose scaled-erfc form cancels the Gaussian factors analytically, so the
    tail is evaluated without underflow for any finite ``theta``.

    Parameters
    ----------
    theta : float or ndarray
        State value(s).
    sigma_eta : float
        Measurement noise standard deviation, must be positive.

    Returns
    -------
    float or ndarray
        ``F_q(theta)``; even in ``theta``, maximal at 0 with value
        ``2 / (pi sigma_eta^2)``.
    """
    if not sigma_eta > 0.0:
        raise ValueError(f"fq requires sigma_eta > 0, got {sigma_eta}.")
    theta = np.asarray(theta, dtype=float)
    flat = theta.reshape(-1)
    u = np.abs(flat) / sigma_eta
    value = (np.exp(-0.5 * u * u) * _residual_gain(flat, sigma_eta)).reshape(theta.shape)
    return value if value.ndim else float(value)


def _residual_gain(theta, sigma_eta: float):
    """``F_q(theta) * exp(+theta^2 / (2 sigma_eta^2))``, growing only linearly.

    Splitting off one Gaussian factor of ``F_q`` leaves this slowly varying
    residual, which a Hermite rule integrates accurately at any state spread.
    ``theta`` is an array of at least one dimension.
    """
    # (1/(pi s^2)) / (erfcx(z) Q(-u)) with z = u/sqrt(2), u = |theta|/s, and
    # Q(-u) = 1 - Q(u) = (2 - erfc(z)) / 2 from the same erfcx(z), rounded
    # as q_function(-u) rounds it; erfc(z) <= 1, so the difference does not
    # cancel. The factor 1/2 moves to the numerator, an exact scaling.
    z = np.abs(theta) / sigma_eta
    z /= math.sqrt(2.0)
    scaled, denominator = _erf.erfcx_erfc(z)
    np.subtract(2.0, denominator, out=denominator)
    denominator *= scaled
    return np.divide(2.0 / (np.pi * sigma_eta**2), denominator, out=denominator)


def _mirror(n: int) -> np.ndarray:
    """Index map spreading values at the nonnegative nodes of a symmetric n-node rule over all n."""
    h = n - n // 2
    return np.concatenate((np.arange(h - 1, n % 2 - 1, -1), np.arange(h)))


@lru_cache(maxsize=None)
def _hermgauss(n: int):
    """Nodes, weights and mirror map of the n-node Gauss-Hermite rule.

    numpy's ``hermgauss`` makes the rule exactly symmetric (``t[i] ==
    -t[n - 1 - i]``, equal weights, a middle node of exactly 0 at odd
    ``n``), so ``half.take(mirror, axis=-1)`` spreads values taken at the
    nonnegative nodes ``t[n // 2:]`` over all ``n`` nodes. The default
    128-node rule is numpy's, frozen in :mod:`._tables`; other node counts
    load ``numpy.polynomial`` on first use.
    """
    if n == 128:
        t, w = np.array([line.split() for line in HERMGAUSS_128.split("\n") if line], dtype=float)
    else:
        t, w = np.polynomial.hermite.hermgauss(n)
    return t, w, _mirror(n)


@lru_cache(maxsize=None)
def _trapezoid(n: int, half_width_sigmas: float):
    """Nodes, weights and mirror map of the n-node trapezoid rule for ``int g(t) exp(-t^2) dt``.

    The nodes are equally spaced over ``t = +-half_width_sigmas / sqrt(2)``,
    which the Hermite change of variable ``theta = m' + sqrt(2 v') t`` maps to
    ``m' +- half_width_sigmas sqrt(v')``; each weight is the trapezoid weight
    times ``exp(-t^2)``. Node ``i`` is ``a (2 i - (n - 1)) / (n - 1)``, so the
    rule is exactly symmetric, as Gauss-Hermite's is.
    """
    a = half_width_sigmas / math.sqrt(2.0)
    t = a * (2.0 * np.arange(n) - (n - 1)) / (n - 1)
    w = np.exp(-t * t) * (2.0 * a / (n - 1))
    w[[0, -1]] *= 0.5
    return t, w, _mirror(n)


def _raise_nonfinite(nodes: np.ndarray, values: np.ndarray):
    """Raise :class:`QuadratureError` for a quadrature sum that is not finite.

    Both rules weight their integrand values positively, so the sum is
    finite exactly when every value is; the rules test the sum and only a
    failed one pays for this search. ``node`` is the first node with a
    non-finite value, or None when the values are finite and only their
    sum overflowed.
    """
    bad = nodes[~np.isfinite(values)]
    if bad.size:
        node = float(bad[0])
        raise QuadratureError(f"expected_fq: non-finite integrand at node {node!r}.", node=node)
    raise QuadratureError("expected_fq: the quadrature sum overflowed.")


# Integrand values per array evaluation: 512 marginals of the default rule.
# A horizon-500 bound takes one; a longer bound or a finer rule takes
# several, so the node arrays stay near 1 MB however many marginals come.
_VALUES_PER_EVALUATION = 512 * 128


def _quadrature(means: list[float], variances: list[float], sigma_eta: float,
                spec: QuadratureSpec) -> list[float]:
    """``E[F_q]`` for each marginal ``N(means[i], variances[i])``, under either rule.

    ``F_q`` is a Gaussian factor ``exp(-theta^2 / (2 sigma_eta^2))`` times the
    slowly varying residual gain. The Gaussian factor is merged into the
    marginal first, giving ``N(m', v')`` with ``1 / v' = 1 / sigma_eta^2 +
    1 / variance``, and the residual gain is integrated against it after the
    change of variable ``theta = m' + sqrt(2 v') t``, by the Gauss-Hermite or
    the trapezoid rule in ``t``. Sampling the raw product at the marginal's
    scale would miss the information peak once the state spread greatly
    exceeds sigma_eta; the merged integrand is smooth at any spread.

    All marginals share one array evaluation of the integrand, one row of a
    2-D array each. Each row is then reduced on its own with ``np.dot`` and
    its prefactor taken in plain floats, so every value is bit-identical to a
    one-row quadrature of its marginal (a matrix-vector product may round
    differently from row to row).
    """
    if spec.rule is QuadratureRule.GAUSS_HERMITE:
        t, w, mirror = _hermgauss(spec.nodes)
    else:
        t, w, mirror = _trapezoid(spec.nodes, spec.half_width_sigmas)
    n = spec.nodes
    mean, variance = np.array(means)[:, None], np.array(variances)[:, None]
    # At a subnormal variance 1 / variance overflows to inf, and the merged
    # variance, the node scale and the prefactor come out 0, as they should.
    with np.errstate(over="ignore"):
        precision = 1.0 / sigma_eta**2 + 1.0 / variance
    v_merged = 1.0 / precision
    m_merged = v_merged * mean / variance
    scale = np.sqrt(2.0 * v_merged)
    if any(means):
        values = _residual_gain(m_merged + scale * t, sigma_eta)
    else:
        # Zero means put each node pair +-t at one |theta|: evaluate the
        # nonnegative half and mirror it.
        values = _residual_gain(scale * t[n // 2 :], sigma_eta).take(mirror, axis=-1)
    totals, merged = [], v_merged.ravel().tolist()
    for i, (row, mean_i, variance_i, v_i) in enumerate(zip(values, means, variances, merged)):
        weighted = float(np.dot(w, row))
        if not math.isfinite(weighted):
            _raise_nonfinite(m_merged[i] + scale[i] * t, row)
        # The exponent 0.5 m^2/v - 0.5 mean^2/variance collapses exactly to
        # -mean^2 / (2 (variance + sigma_eta^2)); the raw difference of the
        # two terms loses ~mean^2/variance * eps at small variance.
        prefactor = math.sqrt(v_i / (math.pi * variance_i)) * math.exp(
            -0.5 * mean_i**2 / (variance_i + sigma_eta**2)
        )
        totals.append(prefactor * weighted)
    return totals


@lru_cache(maxsize=4096)
def _expected_fq_cached(mean: float, variance: float, sigma_eta: float,
                        spec: QuadratureSpec) -> float:
    return _quadrature([mean], [variance], sigma_eta, spec)[0]


def expected_fq(moments: StateMoments, sigma_eta: float,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Expected one-bit Fisher information under a Gaussian state marginal.

    Computes ``E[F_q(theta)]`` for ``theta ~ N(moments.mean,
    moments.variance)``: the one-marginal case of :func:`expected_fq_batch`,
    run as a one-row batch. Results are memoized on (mean, variance,
    sigma_eta, spec).

    Parameters
    ----------
    moments : StateMoments
        Marginal mean and variance of the state at one block.
    sigma_eta : float
        Measurement noise standard deviation.
    spec : QuadratureSpec, optional
        Quadrature rule; the default is 128-node Gauss-Hermite.

    Returns
    -------
    float
        A value in ``(0, 2 / (pi sigma_eta^2)]``.
    """
    if not sigma_eta > 0.0:
        raise ValueError(f"expected_fq requires sigma_eta > 0, got {sigma_eta}.")
    return _expected_fq_cached(float(moments.mean), float(moments.variance),
                               float(sigma_eta), spec)


def expected_fq_batch(means, variances, sigma_eta: float,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE) -> np.ndarray:
    """:func:`expected_fq` for many Gaussian marginals in one array quadrature.

    Either rule evaluates the integrand of many marginals in one array
    operation (512 under the default rule, fewer under a rule with more
    nodes), on the nonnegative half of the nodes when all their means are
    zero. Entry ``i`` is bit-identical to ``expected_fq`` under
    ``N(means[i], variances[i])``. Nothing is memoized: a finite-horizon
    bound asks for each marginal once.

    Parameters
    ----------
    means, variances : sequence of float
        Marginal means and variances, one entry per marginal; every
        variance must be positive and finite.
    sigma_eta : float
        Measurement noise standard deviation, must be positive.
    spec : QuadratureSpec, optional
        Quadrature rule; the default is 128-node Gauss-Hermite.

    Returns
    -------
    ndarray, shape (len(means),)

    Raises
    ------
    QuadratureError
        For the first marginal, in input order, whose quadrature sum is not
        finite (a NaN mean, for one).
    """
    if not sigma_eta > 0.0:
        raise ValueError(f"expected_fq_batch requires sigma_eta > 0, got {sigma_eta}.")
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if means.ndim != 1 or means.shape != variances.shape:
        raise ValueError(f"means and variances must be 1-D of one length, got shapes "
                         f"{means.shape} and {variances.shape}.")
    bad = variances[~((variances > 0.0) & np.isfinite(variances))]
    if bad.size:
        raise ValueError(f"expected_fq_batch requires finite variances > 0, got {bad[0]}.")
    out = np.empty(means.size)
    step = max(1, _VALUES_PER_EVALUATION // spec.nodes)
    for start in range(0, means.size, step):
        rows = slice(start, start + step)
        out[rows] = _quadrature(means[rows].tolist(), variances[rows].tolist(),
                                float(sigma_eta), spec)
    return out
