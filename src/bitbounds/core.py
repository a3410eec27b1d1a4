"""Scalar Gauss-Markov model and the building blocks of its information recursions.

The state evolves as ``theta_k = alpha * theta_{k-1} + z_k`` with
``z_k ~ N(0, sigma_z^2)`` and a Gaussian prior ``theta_0 ~ N(mu0, sigma0^2)``.
Each block k >= 1 is observed either directly in additive Gaussian noise
(``y_k = theta_k + eta_k``) or through a single-bit quantizer
(``r_k = sign(theta_k + eta_k)``, with ``sign(0) := +1``).

This module provides the model container, the measurement-channel selector,
the two scalar steps that every finite-horizon bound recursion is built from
(one forward information step, one backward smoothing-gain step), the
closed form of the marginal state moments, and :func:`_integer`, the one
check that every count, lag, horizon, seed and node count goes through.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as a Python int, checked to be an integer in ``[low, high]``.

    Python and numpy integers pass; ``bool`` does not, although it is an
    ``int``: ``True`` as a count or a lag is a mistake, not the number 1.
    Returning a Python int keeps narrow numpy integers out of the caller's
    index arithmetic, where they overflow. A non-integer raises a TypeError,
    a value out of range (``high=None``: none above) a ValueError; both
    name ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an int, got {value!r}.")
    value = int(value)
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {value}.")
    return value


class MeasurementChannel(enum.Enum):
    """How the noisy state is delivered to the estimator."""

    UNQUANTIZED = "unquantized"
    ONE_BIT = "one_bit"


@dataclass(frozen=True)
class GaussMarkovModel:
    """First-order scalar Gauss-Markov process with additive Gaussian noise.

    Parameters
    ----------
    alpha : float
        State transition coefficient. Requires ``|alpha| <= 1``; values with
        ``|alpha| = 1`` are accepted but have no stationary distribution.
    sigma_z : float
        Process noise standard deviation, must be positive.
    sigma_eta : float
        Measurement noise standard deviation, must be positive.
    sigma0 : float
        Prior standard deviation of ``theta_0``, must be positive.
    mu0 : float, optional
        Prior mean of ``theta_0``. Defaults to 0, which keeps the one-bit
        channel symmetric around its threshold.
    """

    alpha: float
    sigma_z: float
    sigma_eta: float
    sigma0: float
    mu0: float = 0.0

    def __post_init__(self):
        if not abs(self.alpha) <= 1.0:
            raise ValueError(f"GaussMarkovModel requires |alpha| <= 1, got {self.alpha}.")
        for name in ("sigma_z", "sigma_eta", "sigma0"):
            value = getattr(self, name)
            if not value > 0.0 or not math.isfinite(value):
                raise ValueError(f"GaussMarkovModel requires {name} > 0, got {value}.")
        if not math.isfinite(self.mu0):
            raise ValueError(f"GaussMarkovModel requires finite mu0, got {self.mu0}.")

    @property
    def is_stationary(self) -> bool:
        """Whether the state process admits a stationary distribution."""
        return abs(self.alpha) < 1.0


@dataclass(frozen=True)
class StateMoments:
    """Marginal mean and variance of the state at one block."""

    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0.0:
            raise ValueError(f"StateMoments requires variance > 0, got {self.variance}.")


def _info_step(j_prev, fim, a2, q):
    """:func:`forward_info_step` with its model coefficients ``a2 = alpha^2``, ``q = sigma_z^2``.

    The bound recursions call this once per block with the coefficients
    formed once per call, so no step recomputes them.
    """
    return fim + j_prev / (a2 + q * j_prev)


def _gain_step(kappa, fim, s, a2s):
    """:func:`gain_step` with its model coefficients ``s = 1 / sigma_z^2``, ``a2s = alpha^2 s``."""
    return a2s * (fim + kappa) / (s + fim + kappa)


def _info_coefficients(model: GaussMarkovModel) -> tuple[float, float]:
    """``(alpha^2, sigma_z^2)``, the coefficients of :func:`_info_step`."""
    return model.alpha**2, model.sigma_z**2


def _gain_coefficients(model: GaussMarkovModel) -> tuple[float, float]:
    """``(1 / sigma_z^2, alpha^2 / sigma_z^2)``, the coefficients of :func:`_gain_step`."""
    s = 1.0 / model.sigma_z**2
    return s, model.alpha**2 * s


def forward_info_step(model: GaussMarkovModel, j_prev, fim=0.0):
    """One forward information step: a transition, then a measurement.

    ``J_k = F_k + 1 / (sigma_z^2 + alpha^2 / J_{k-1})``. The propagated
    state has variance ``alpha^2 / J_{k-1} + sigma_z^2``, whose inverse is
    the information before block k is measured; the measurement adds
    ``F_k``. It is evaluated as ``F_k + J_{k-1} / (alpha^2 + sigma_z^2
    J_{k-1})``: every term is positive, so there is no cancellation, and
    near ``alpha = 1`` the rounding errors of a long prediction do not pile
    up as they do in the nested-reciprocal form (2e-15 against 3e-14 after
    500 steps at ``alpha = 1 - 1e-9``, ``sigma_z = 1e-3``). With ``fim = 0``
    it is the prediction step. Accepts floats or arrays.
    """
    return _info_step(j_prev, fim, *_info_coefficients(model))


def gain_step(model: GaussMarkovModel, kappa, fim):
    """One backward smoothing-gain step.

    ``kappa(l) = a2s (F + kappa) / (s + F + kappa)`` with ``F = F_{l+1}``,
    ``kappa = kappa(l+1)``, ``s = 1 / sigma_z^2`` and ``a2s = alpha^2 s``:
    the information that measurements after block ``l`` add to the
    filtered information of block ``l``. Accepts floats or arrays.
    """
    return _gain_step(kappa, fim, *_gain_coefficients(model))


def marginal_moments(model: GaussMarkovModel, blocks) -> list[tuple[float, float]]:
    """Marginal ``(mean, variance)`` of ``theta_k`` for each ``k`` in ``blocks``, as floats.

    The mean is ``alpha^k * mu0``. The variance sums the geometric series of
    propagated process noise,
    ``alpha^(2k) * sigma0^2 + sigma_z^2 * (1 - alpha^(2k)) / (1 - alpha^2)``,
    which degenerates to ``sigma0^2 + k * sigma_z^2`` when ``|alpha| = 1``.
    This is the single copy of the formula: :func:`state_moments` wraps one
    block of it, and the per-block bound recursions take all blocks at once
    without building a :class:`StateMoments` per block.

    Parameters
    ----------
    model : GaussMarkovModel
    blocks : iterable of int
        Block indices, each ``>= 0`` (not checked here).

    Returns
    -------
    list of (float, float)
    """
    a = model.alpha
    s0 = model.sigma0**2
    sz = model.sigma_z**2
    out = []
    if abs(a) == 1.0:
        for k in blocks:
            out.append(((a**k) * model.mu0, s0 + k * sz))
        return out
    # alpha^(2k) in log space so large k underflows cleanly to 0; math.exp,
    # not np.exp, whose last-ulp difference the 1 - decay cancellation
    # amplifies near alpha = 1
    log_a = math.log(abs(a)) if a != 0.0 else None
    stationary = 1.0 - a * a
    for k in blocks:
        if log_a is None:
            decay = 1.0 if k == 0 else 0.0
        else:
            decay = math.exp(2.0 * k * log_a)
        out.append(((a**k) * model.mu0, decay * s0 + sz * (1.0 - decay) / stationary))
    return out


def state_moments(model: GaussMarkovModel, k: int) -> StateMoments:
    """Marginal moments of ``theta_k`` in closed form (:func:`marginal_moments`).

    Parameters
    ----------
    model : GaussMarkovModel
    k : int
        Block index, ``k >= 0``.

    Returns
    -------
    StateMoments
    """
    ((mean, variance),) = marginal_moments(model, (_integer("k", k, 0),))
    return StateMoments(mean, variance)


def stationary_variance(model: GaussMarkovModel) -> float:
    """Stationary state variance ``sigma_z^2 / (1 - alpha^2)``.

    Raises
    ------
    ValueError
        If ``|alpha| >= 1`` (no stationary distribution exists).
    """
    if not model.is_stationary:
        raise ValueError(
            f"stationary_variance requires |alpha| < 1, got alpha = {model.alpha}."
        )
    return model.sigma_z**2 / (1.0 - model.alpha**2)
