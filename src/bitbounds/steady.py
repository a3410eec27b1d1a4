"""Steady-state information fixed points and quantization performance ratios.

For a stationary chain the filtering information, the smoothing gain, and
their sum (the long-lag smoothing information) all converge to fixed points
of the per-block recursions. Both fixed points solve scalar quadratics once
the steady expected measurement information ``f`` is known:

    J^2 - B J - C = 0,   kappa^2 + B kappa - C = 0,
    B = (1 - alpha^2) s + f,   C = alpha^2 s f,   s = 1 / sigma_z^2,

with positive roots ``J = (B + sqrt(B^2 + 4C)) / 2`` and
``kappa = 2C / (B + sqrt(B^2 + 4C))``, so ``J + kappa = sqrt(B^2 + 4C)``.
:func:`quadratic_filter_root` and :func:`quadratic_gain_root` return these
roots as floats, exact as ``alpha -> 1``, where the plain recursions contract
too slowly to iterate. The iterations are kept only in the tests, as oracles.

Performance ratios compare the two channels in decibels: ``rho_f`` and
``rho_sl`` are the one-bit information losses for filtering and long-lag
smoothing, and ``rho_s`` compares one-bit smoothing against unquantized
filtering (positive when smoothing more than repays the quantization loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    GaussMarkovModel,
    MeasurementChannel,
    StateMoments,
    _integer,
    stationary_variance,
)
from .qfim import DEFAULT_QUADRATURE, QuadratureSpec, expected_fq

__all__ = [
    "SteadyStateReport",
    "steady_expected_fim",
    "quadratic_filter_root",
    "quadratic_gain_root",
    "steady_lag_gain",
    "performance_ratios",
    "snr_to_sigma_z",
    "model_for_snr",
]


@dataclass(frozen=True)
class SteadyStateReport:
    """Steady-state informations and dB performance ratios for one model.

    Parameters
    ----------
    snr_db : float
        ``10 log10(stationary state variance / sigma_eta^2)``.
    j_filter_unq, j_filter_q : float
        Steady filtering informations, unquantized and one-bit.
    kappa_unq, kappa_q : float
        Steady smoothing gains.
    j_smooth_unq, j_smooth_q : float
        Steady long-lag smoothing informations; each equals the matching
        filter value plus gain.
    rho_f_db : float
        One-bit filtering loss ``10 log10(j_filter_q / j_filter_unq)``.
    rho_sl_db : float
        One-bit smoothing loss ``10 log10(j_smooth_q / j_smooth_unq)``.
    rho_s_db : float
        One-bit smoothing vs unquantized filtering,
        ``10 log10(j_smooth_q / j_filter_unq)``.
    iterations_used : tuple of int
        Always ``(0, 0, 0, 0)``: the roots are closed forms. Its only reader
        is the benchmark's layer tracer (``perfbench/spans.py``), which
        reports a missing counter as ``null``; the field goes once the
        tracer stops reading it.

    Every float field must be finite.
    """

    snr_db: float
    j_filter_unq: float
    j_filter_q: float
    kappa_unq: float
    kappa_q: float
    j_smooth_unq: float
    j_smooth_q: float
    rho_f_db: float
    rho_sl_db: float
    rho_s_db: float
    iterations_used: tuple[int, int, int, int]

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if name != "iterations_used" and not math.isfinite(getattr(self, name)):
                raise ValueError(f"SteadyStateReport requires a finite {name}, "
                                 f"got {getattr(self, name)}.")
        for name in ("j_filter_unq", "j_filter_q", "j_smooth_unq", "j_smooth_q"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"SteadyStateReport requires {name} > 0, got {getattr(self, name)}.")
        for name in ("kappa_unq", "kappa_q"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"SteadyStateReport requires {name} >= 0, got {getattr(self, name)}.")
        for filt, gain, smooth in (
            (self.j_filter_unq, self.kappa_unq, self.j_smooth_unq),
            (self.j_filter_q, self.kappa_q, self.j_smooth_q),
        ):
            if not math.isclose(filt + gain, smooth, rel_tol=1e-12):
                raise ValueError("SteadyStateReport requires j_smooth == j_filter + kappa.")
        if self.rho_f_db > 0.0 or self.rho_sl_db > 0.0:
            raise ValueError("Quantization losses must be <= 0 dB.")


def steady_expected_fim(model: GaussMarkovModel, channel: MeasurementChannel,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Expected per-sample measurement information under the stationary marginal.

    The stationary marginal is ``N(0, sigma_z^2 / (1 - alpha^2))``; the prior
    mean plays no role because its influence decays geometrically. For the
    unquantized channel this is the constant ``1 / sigma_eta^2`` and the
    stationarity requirement is waived.
    """
    if not isinstance(channel, MeasurementChannel):
        raise TypeError(f"channel must be a MeasurementChannel, got {channel!r}.")
    if channel is MeasurementChannel.UNQUANTIZED:
        return 1.0 / model.sigma_eta**2
    return expected_fq(StateMoments(0.0, stationary_variance(model)), model.sigma_eta, spec)


def _quadratic(model: GaussMarkovModel, fim: float) -> tuple[float, float, float, float]:
    """``s``, ``B``, ``C`` and ``sqrt(B^2 + 4C)`` of the steady quadratics for ``fim``."""
    s = 1.0 / model.sigma_z**2
    b = (1.0 - model.alpha**2) * s + fim
    c = model.alpha**2 * s * fim
    return s, b, c, math.sqrt(b * b + 4.0 * c)


def quadratic_filter_root(model: GaussMarkovModel, fim: float) -> float:
    """Positive root of the steady filtering quadratic for a given ``fim``."""
    _, b, _, root = _quadratic(model, fim)
    return 0.5 * (b + root)


def quadratic_gain_root(model: GaussMarkovModel, fim: float) -> float:
    """Positive root of the steady smoothing-gain quadratic for a given ``fim``.

    Written as ``2C / (B + sqrt(B^2 + 4C))`` to avoid the cancellation in
    the textbook root formula when ``C << B^2``.
    """
    _, b, c, root = _quadratic(model, fim)
    return 2.0 * c / (b + root)


def steady_lag_gain(model: GaussMarkovModel, fim: float, lag: int) -> float:
    """Steady smoothing gain of a finite lag, in closed form.

    The information a lag-``lag`` smoother adds over the steady filter:
    ``lag`` backward gain steps from 0 with the steady expected measurement
    information ``f = fim`` (:func:`steady_expected_fim`). The step
    ``kappa <- alpha^2 s (f + kappa) / (s + f + kappa)`` is a Moebius map
    with the fixed points ``p`` (the root of :func:`quadratic_gain_root`)
    and ``q = -(B + sqrt(B^2 + 4C)) / 2``, so ``(kappa - p) / (kappa - q)``
    shrinks by ``k = (q + s + f) / (p + s + f)`` per step. From
    ``kappa = 0`` that gives
    ``p (1 - k^lag) / (1 - k^lag p / q)``, with ``1 - k^lag`` taken from
    ``expm1`` and ``log1p`` of ``k - 1 = -(p - q) / (p + s + f)``. Increases
    monotonically in ``lag`` toward ``p``; 0 at ``lag = 0`` and when
    ``alpha = 0``.
    """
    lag = _integer("lag", lag, 0)
    s, b, c, root = _quadratic(model, fim)
    if lag == 0 or c == 0.0:
        return 0.0
    p = 2.0 * c / (b + root)
    q = -0.5 * (b + root)
    # k = 1 - root / (p + s + f) is of order alpha^2: where that rounds to
    # 0 or below, k^lag is far below the rounding of p and is taken as 0
    total = p + s + fim
    log_k = math.log1p(-root / total) if root < total else -math.inf
    power = math.exp(lag * log_k)
    return p * -math.expm1(lag * log_k) / (1.0 - power * p / q)


def performance_ratios(model: GaussMarkovModel,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> SteadyStateReport:
    """Steady informations for both channels and the three dB ratios.

    Parameters
    ----------
    model : GaussMarkovModel
        Must be stationary (``|alpha| < 1``).
    spec : QuadratureSpec, optional
        Quadrature for the one-bit expected information.

    Returns
    -------
    SteadyStateReport
    """
    if not model.is_stationary:
        raise ValueError(f"performance_ratios requires |alpha| < 1, got alpha = {model.alpha}.")
    return _report(model, steady_expected_fim(model, MeasurementChannel.ONE_BIT, spec))


def _report(model: GaussMarkovModel, fim_q: float) -> SteadyStateReport:
    """:func:`performance_ratios` of a stationary model whose one-bit information is ``fim_q``."""
    snr_db = 10.0 * math.log10(stationary_variance(model) / model.sigma_eta**2)
    roots = []
    for fim in (steady_expected_fim(model, MeasurementChannel.UNQUANTIZED), fim_q):
        roots.append((quadratic_filter_root(model, fim), quadratic_gain_root(model, fim)))
    (f_unq, g_unq), (f_q, g_q) = roots
    smooth_unq = f_unq + g_unq
    smooth_q = f_q + g_q
    return SteadyStateReport(
        snr_db=snr_db,
        j_filter_unq=f_unq,
        j_filter_q=f_q,
        kappa_unq=g_unq,
        kappa_q=g_q,
        j_smooth_unq=smooth_unq,
        j_smooth_q=smooth_q,
        rho_f_db=10.0 * math.log10(f_q / f_unq),
        rho_sl_db=10.0 * math.log10(smooth_q / smooth_unq),
        rho_s_db=10.0 * math.log10(smooth_q / f_unq),
        iterations_used=(0, 0, 0, 0),
    )


def snr_to_sigma_z(alpha: float, snr_db: float, sigma_eta: float = 1.0) -> float:
    """Process noise level that realizes a requested stationary SNR.

    Inverts ``snr_db = 10 log10(sigma_z^2 / ((1 - alpha^2) sigma_eta^2))``,
    giving ``sigma_z = sigma_eta * sqrt((1 - alpha^2) * 10^(snr_db / 10))``.

    Raises
    ------
    ValueError
        If ``|alpha| >= 1`` or ``sigma_eta <= 0``.
    """
    if not abs(alpha) < 1.0:
        raise ValueError(f"snr_to_sigma_z requires |alpha| < 1, got {alpha}.")
    if not sigma_eta > 0.0:
        raise ValueError(f"snr_to_sigma_z requires sigma_eta > 0, got {sigma_eta}.")
    return sigma_eta * math.sqrt((1.0 - alpha**2) * 10.0 ** (snr_db / 10.0))


def model_for_snr(alpha: float, snr_db: float, sigma_eta: float = 1.0) -> GaussMarkovModel:
    """Stationary model at a requested SNR, started from its stationary prior.

    The prior is ``N(0, stationary variance)``, so every block shares the
    stationary marginal and transient effects vanish.
    """
    sigma_z = snr_to_sigma_z(alpha, snr_db, sigma_eta)
    sigma0 = sigma_z / math.sqrt(1.0 - alpha**2)
    return GaussMarkovModel(alpha=alpha, sigma_z=sigma_z, sigma_eta=sigma_eta,
                            sigma0=sigma0, mu0=0.0)
