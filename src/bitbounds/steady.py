"""Steady-state information fixed points and quantization performance ratios.

For a stationary chain the filtering information, the smoothing gain, and
their sum (the long-lag smoothing information) all converge to fixed points
of the per-block recursions. Both fixed points solve scalar quadratics once
the steady expected measurement information ``f`` is known:

    J^2 - B J - C = 0,   kappa^2 + B kappa - C = 0,
    B = (1 - alpha^2) s + f,   C = alpha^2 s f,   s = 1 / sigma_z^2,

with positive roots ``J = (B + sqrt(B^2 + 4C)) / 2`` and
``kappa = 2C / (B + sqrt(B^2 + 4C))``, so ``J + kappa = sqrt(B^2 + 4C)``.
The solvers here return these roots, which stay exact as ``alpha -> 1``,
where the plain recursions contract too slowly to iterate. The iterations
are kept only in the tests, as oracles on models where they converge.

Performance ratios compare the two channels in decibels: ``rho_f`` and
``rho_sl`` are the one-bit information losses for filtering and long-lag
smoothing, and ``rho_s`` compares one-bit smoothing against unquantized
filtering (positive when smoothing more than repays the quantization loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import GaussMarkovModel, MeasurementChannel, StateMoments, gain_step, stationary_variance
from .qfim import DEFAULT_QUADRATURE, QuadratureSpec, expected_fim

__all__ = [
    "FixedPointResult",
    "SteadyStateReport",
    "steady_expected_fim",
    "quadratic_filter_root",
    "quadratic_gain_root",
    "steady_filter_bim",
    "steady_smoothing_gain",
    "steady_lag_gain",
    "performance_ratios",
    "snr_to_sigma_z",
    "model_for_snr",
]


@dataclass(frozen=True)
class FixedPointResult:
    """Fixed-point value with iteration accounting.

    The solvers are closed forms, so ``iterations`` is 0 and ``converged``
    is True; both fields stay for callers that report them.
    """

    value: float
    iterations: int
    converged: bool

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"FixedPointResult requires a finite value, got {self.value}.")
        if self.iterations < 0:
            raise ValueError(f"FixedPointResult requires iterations >= 0, got {self.iterations}.")


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
        Solver iterations, ordered (filter unquantized, filter one-bit,
        gain unquantized, gain one-bit); all 0 for the closed forms.
    converged : tuple of bool
        Convergence flags in the same order; all True.
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
    converged: tuple[bool, bool, bool, bool]

    def __post_init__(self):
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
    if channel is MeasurementChannel.UNQUANTIZED:
        return 1.0 / model.sigma_eta**2
    moments = StateMoments(block_index=0, mean=0.0, variance=stationary_variance(model))
    return expected_fim(channel, moments, model.sigma_eta, spec)


def quadratic_filter_root(model: GaussMarkovModel, fim: float) -> float:
    """Positive root of the steady filtering quadratic for a given ``fim``."""
    s = 1.0 / model.sigma_z**2
    b = (1.0 - model.alpha**2) * s + fim
    c = model.alpha**2 * s * fim
    return 0.5 * (b + math.sqrt(b * b + 4.0 * c))


def quadratic_gain_root(model: GaussMarkovModel, fim: float) -> float:
    """Positive root of the steady smoothing-gain quadratic for a given ``fim``.

    Written as ``2C / (B + sqrt(B^2 + 4C))`` to avoid the cancellation in
    the textbook root formula when ``C << B^2``.
    """
    s = 1.0 / model.sigma_z**2
    b = (1.0 - model.alpha**2) * s + fim
    c = model.alpha**2 * s * fim
    return 2.0 * c / (b + math.sqrt(b * b + 4.0 * c))


def steady_filter_bim(model: GaussMarkovModel, channel: MeasurementChannel,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE) -> FixedPointResult:
    """Steady-state filtering information.

    The fixed point of ``J <- s + f - alpha^2 s^2 / (J + alpha^2 s)``,
    returned as the positive root of the filtering quadratic
    (:func:`quadratic_filter_root`): exact for every ``|alpha| <= 1``,
    however slowly the map contracts.

    Parameters
    ----------
    model : GaussMarkovModel
        The one-bit channel requires a stationary model; the unquantized
        channel also accepts ``|alpha| = 1``.
    channel : MeasurementChannel
    spec : QuadratureSpec, optional

    Returns
    -------
    FixedPointResult
        With ``iterations = 0`` and ``converged = True``.
    """
    fim = steady_expected_fim(model, channel, spec)
    return FixedPointResult(quadratic_filter_root(model, fim), iterations=0, converged=True)


def steady_smoothing_gain(model: GaussMarkovModel, channel: MeasurementChannel,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE) -> FixedPointResult:
    """Steady-state smoothing gain.

    The fixed point of ``kappa <- alpha^2 s - alpha^2 s^2 / (s + f + kappa)``,
    returned as the positive root of the gain quadratic
    (:func:`quadratic_gain_root`). The value is the information a long-lag
    smoother adds on top of the steady filter. Parameters and result match
    :func:`steady_filter_bim`.
    """
    fim = steady_expected_fim(model, channel, spec)
    return FixedPointResult(quadratic_gain_root(model, fim), iterations=0, converged=True)


def steady_lag_gain(model: GaussMarkovModel, channel: MeasurementChannel, lag: int,
                    spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Steady smoothing gain of a finite lag.

    Applies exactly ``lag`` backward gain steps from 0 with the steady
    expected measurement information, giving the information a lag-``lag``
    smoother adds over the steady filter. Increases monotonically in
    ``lag`` toward the fixed point of :func:`steady_smoothing_gain`.
    """
    if lag < 0:
        raise ValueError(f"steady_lag_gain requires lag >= 0, got {lag}.")
    fim = steady_expected_fim(model, channel, spec)
    kappa = 0.0
    for _ in range(lag):
        kappa = gain_step(model, kappa, fim)
    return kappa


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
    snr_db = 10.0 * math.log10(stationary_variance(model) / model.sigma_eta**2)
    roots = []
    for channel in (MeasurementChannel.UNQUANTIZED, MeasurementChannel.ONE_BIT):
        fim = steady_expected_fim(model, channel, spec)
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
        converged=(True, True, True, True),
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
