"""Per-sample Fisher information of the one-bit measurement channel.

A measurement ``r = sign(theta + eta)`` with ``eta ~ N(0, sigma_eta^2)`` is a
Bernoulli observation with success probability ``Phi(theta / sigma_eta)``. Its
Fisher information about ``theta`` is

    F_q(theta) = exp(-theta^2 / sigma_eta^2)
                 / (2 pi sigma_eta^2 Q(theta/sigma_eta) Q(-theta/sigma_eta)),

which peaks at ``F_q(0) = 2 / (pi sigma_eta^2)`` and decays like a Gaussian
half-width away from the threshold. Bound recursions need the expectation of
``F_q`` under the Gaussian marginal of the state, computed here by quadrature.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .core import MeasurementChannel, StateMoments
from .exceptions import QuadratureError

__all__ = [
    "QuadratureRule",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "q_function",
    "fq",
    "expected_fq",
    "expected_fim",
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
        Trapezoid integration range, ``mean +- half_width_sigmas * sd``.
        Must lie in [4, 16]; ignored by Gauss-Hermite.
    """

    rule: QuadratureRule = QuadratureRule.GAUSS_HERMITE
    nodes: int = 128
    half_width_sigmas: float = 10.0

    def __post_init__(self):
        if self.rule is QuadratureRule.GAUSS_HERMITE:
            if not 16 <= self.nodes <= 370:
                raise ValueError(f"Gauss-Hermite nodes must be in [16, 370], got {self.nodes}.")
        else:
            if not 64 <= self.nodes <= 1_000_000:
                raise ValueError(f"Trapezoid nodes must be in [64, 1e6], got {self.nodes}.")
        if not 4.0 <= self.half_width_sigmas <= 16.0:
            raise ValueError(
                f"half_width_sigmas must be in [4, 16], got {self.half_width_sigmas}."
            )


DEFAULT_QUADRATURE = QuadratureSpec()


def q_function(x):
    """Gaussian tail probability ``Q(x) = P(N(0,1) > x)``.

    Evaluated as ``0.5 * erfc(x / sqrt(2))``, which stays positive and
    accurate far into the tail (no underflow to zero for ``|x| <= 37``).

    Parameters
    ----------
    x : float or ndarray

    Returns
    -------
    float or ndarray
    """
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def fq(theta, sigma_eta: float):
    """Per-sample Fisher information of the one-bit channel at state ``theta``.

    Uses the identity ``Q(u) = 0.5 * exp(-u^2/2) * erfcx(u / sqrt(2))`` to
    cancel the Gaussian factors analytically, so the tail is evaluated
    without underflow for any finite ``theta``.

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
    u = np.abs(theta) / sigma_eta
    # F_q = (1/(2 pi s^2)) e^{-u^2} / (Q(u) Q(-u)) with the positive-branch
    # Q(u) rewritten through erfcx; Q(-u) >= 1/2 needs no rewriting.
    value = (
        np.exp(-0.5 * u * u)
        / (np.pi * sigma_eta**2)
        / (special.erfcx(u / math.sqrt(2.0)) * q_function(-u))
    )
    return value if value.ndim else float(value)


def _residual_gain(theta, sigma_eta: float):
    """``F_q(theta) * exp(+theta^2 / (2 sigma_eta^2))``, growing only linearly.

    Splitting off one Gaussian factor of ``F_q`` leaves this slowly varying
    residual, which a Hermite rule integrates accurately at any state spread.
    """
    u = np.abs(np.asarray(theta, dtype=float)) / sigma_eta
    return (1.0 / (np.pi * sigma_eta**2)) / (
        special.erfcx(u / math.sqrt(2.0)) * q_function(-u)
    )


@lru_cache(maxsize=None)
def _hermgauss(n: int):
    return np.polynomial.hermite.hermgauss(n)


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


@lru_cache(maxsize=4096)
def _expected_fq_cached(mean: float, variance: float, sigma_eta: float,
                        spec: QuadratureSpec) -> float:
    if spec.rule is QuadratureRule.GAUSS_HERMITE:
        t, w = _hermgauss(spec.nodes)
        # Merge the Gaussian factor of F_q with the state marginal before
        # applying the Hermite change of variable; sampling the raw product
        # at the marginal's scale misses the information peak once the state
        # spread greatly exceeds sigma_eta.
        precision = 1.0 / sigma_eta**2 + 1.0 / variance
        v_merged = 1.0 / precision
        m_merged = v_merged * mean / variance
        nodes = m_merged + math.sqrt(2.0 * v_merged) * t
        values = _residual_gain(nodes, sigma_eta)
        weighted = float(np.dot(w, values))
        if not math.isfinite(weighted):
            _raise_nonfinite(nodes, values)
        # The exponent 0.5 m^2/v - 0.5 mean^2/variance collapses exactly to
        # -mean^2 / (2 (variance + sigma_eta^2)); the raw difference of the
        # two terms loses ~mean^2/variance * eps at small variance.
        prefactor = math.sqrt(v_merged / (math.pi * variance)) * math.exp(
            -0.5 * mean**2 / (variance + sigma_eta**2)
        )
        total = prefactor * weighted
    else:
        sd = math.sqrt(variance)
        nodes = np.linspace(
            mean - spec.half_width_sigmas * sd,
            mean + spec.half_width_sigmas * sd,
            spec.nodes,
        )
        density = np.exp(-0.5 * (nodes - mean) ** 2 / variance) / math.sqrt(
            2.0 * math.pi * variance
        )
        values = fq(nodes, sigma_eta) * density
        total = float(np.trapezoid(values, nodes))
        if not math.isfinite(total):
            _raise_nonfinite(nodes, values)
    return total


def expected_fq(moments: StateMoments, sigma_eta: float,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Expected one-bit Fisher information under a Gaussian state marginal.

    Computes ``E[F_q(theta)]`` for ``theta ~ N(moments.mean,
    moments.variance)``. Results are memoized on (mean, variance, sigma_eta,
    spec); the block index plays no role in the value.

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


def expected_fim(channel: MeasurementChannel, moments: StateMoments, sigma_eta: float,
                 spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Expected per-block measurement information for either channel.

    The unquantized channel contributes the constant ``1 / sigma_eta^2``;
    the one-bit channel contributes ``expected_fq`` under the block's
    state marginal.
    """
    if channel is MeasurementChannel.UNQUANTIZED:
        if not sigma_eta > 0.0:
            raise ValueError(f"expected_fim requires sigma_eta > 0, got {sigma_eta}.")
        return 1.0 / sigma_eta**2
    return expected_fq(moments, sigma_eta, spec)
