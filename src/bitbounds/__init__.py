"""Estimation-error lower bounds for one-bit measurements of a Gauss-Markov process.

A scalar state ``theta_k = alpha * theta_{k-1} + z_k`` is observed either
directly in Gaussian noise or through a single-bit quantizer. This package
computes the recursive Bayesian informations whose inverses bound the
mean square error of filtering, prediction, and smoothing under both
channels; their steady-state fixed points and the dB performance ratios
between the channels; and reference estimators (Kalman/RTS, point-mass grid)
with a Monte Carlo harness that validates the bounds empirically. A command
line tool (``bitbounds``) runs the standard sweep and validation experiments.
"""

from .bim import (
    BimKind,
    BimSequence,
    filter_bim_sequence,
    filtered_information,
    per_block_fims,
    predict_bim,
    smooth_bim_compact,
    smoothing_gain,
)
from .core import (
    GaussMarkovModel,
    MeasurementChannel,
    StateMoments,
    forward_info_step,
    gain_step,
    state_moments,
    stationary_variance,
)
from .estimators import (
    GridFilterResult,
    GridSmootherResult,
    GridSpec,
    KalmanResult,
    MseReport,
    RtsResult,
    TrajectoryBatch,
    burn_in_blocks,
    grid_filter,
    grid_smoother,
    kalman_filter,
    kalman_steady_variance,
    monte_carlo_mse,
    rts_smoother,
    rts_steady_variance,
    simulate,
)
from .exceptions import NumericalDegeneracyError, QuadratureError
from .qfim import (
    DEFAULT_QUADRATURE,
    QuadratureRule,
    QuadratureSpec,
    expected_fq,
    expected_fq_batch,
    fq,
    q_function,
)
from .steady import (
    SteadyStateReport,
    model_for_snr,
    performance_ratios,
    quadratic_filter_root,
    quadratic_gain_root,
    snr_to_sigma_z,
    steady_expected_fim,
    steady_lag_gain,
)

__version__ = "0.1.0"

__all__ = [
    "BimKind",
    "BimSequence",
    "DEFAULT_QUADRATURE",
    "GaussMarkovModel",
    "GridFilterResult",
    "GridSmootherResult",
    "GridSpec",
    "KalmanResult",
    "MeasurementChannel",
    "MseReport",
    "NumericalDegeneracyError",
    "QuadratureError",
    "QuadratureRule",
    "QuadratureSpec",
    "RtsResult",
    "StateMoments",
    "SteadyStateReport",
    "TrajectoryBatch",
    "burn_in_blocks",
    "expected_fq",
    "expected_fq_batch",
    "filter_bim_sequence",
    "filtered_information",
    "forward_info_step",
    "fq",
    "gain_step",
    "grid_filter",
    "grid_smoother",
    "kalman_filter",
    "kalman_steady_variance",
    "model_for_snr",
    "monte_carlo_mse",
    "per_block_fims",
    "performance_ratios",
    "predict_bim",
    "q_function",
    "quadratic_filter_root",
    "quadratic_gain_root",
    "rts_smoother",
    "rts_steady_variance",
    "simulate",
    "smooth_bim_compact",
    "smoothing_gain",
    "snr_to_sigma_z",
    "state_moments",
    "stationary_variance",
    "steady_expected_fim",
    "steady_lag_gain",
    "__version__",
]
