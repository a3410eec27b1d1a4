"""Bayesian information recursions for filtering, prediction, smoothing.

For the scalar Gauss-Markov chain, the Bayesian information of the state
``theta_l`` given measurements up to block ``k`` obeys per-block scalar
recursions. Their inverses lower-bound the MSE of any estimator of
``theta_l``:

* filtering (``l = k``): forward recursion seeded by the prior information
  ``1/sigma0^2``, each step folding in one transition and one measurement
  (:func:`~bitbounds.core.forward_info_step`);
* prediction (``l > k``): the same forward step without measurement
  information, which contracts to a model-only fixed point;
* smoothing (``l < k``): the filtered information plus a smoothing gain that
  obeys its own backward recursion (:func:`~bitbounds.core.gain_step`).

Block 0 carries the prior only; measurements enter at blocks 1..K. Every
sequence is conditioned on the measurements up to its last block ``K``:
conditioning on an earlier block ``k`` is the same computation at horizon
``k``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GaussMarkovModel,
    MeasurementChannel,
    forward_info_step,
    gain_step,
    marginal_moments,
)
from .qfim import DEFAULT_QUADRATURE, QuadratureSpec, expected_fq_batch

__all__ = [
    "BimSequence",
    "per_block_fims",
    "filtered_information",
    "filter_bim_sequence",
    "predict_bim",
    "smoothing_gain",
    "smooth_bim_compact",
]


@dataclass(frozen=True)
class BimSequence:
    """A sequence of per-block Bayesian informations.

    Parameters
    ----------
    values : ndarray, shape (L,)
        Finite. From :func:`filter_bim_sequence`, ``values[k]`` is the
        information of block ``k`` given measurements 1..k; from
        :func:`smooth_bim_compact`, of block ``l`` given measurements
        1..L-1; from :func:`predict_bim`, of ``m`` blocks past the last
        measurement.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError(f"values must have shape (L,) with L >= 1, got {values.shape}.")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite.")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def variances(self) -> np.ndarray:
        """Per-block MSE lower bounds, the inverses of ``values``."""
        return 1.0 / self.values


def per_block_fims(model: GaussMarkovModel, channel: MeasurementChannel, num_blocks: int,
                   spec: QuadratureSpec = DEFAULT_QUADRATURE) -> np.ndarray:
    """Expected measurement information at each block marginal.

    Parameters
    ----------
    model : GaussMarkovModel
    channel : MeasurementChannel
    num_blocks : int
        Last block index ``K``; must be nonnegative.
    spec : QuadratureSpec, optional

    Returns
    -------
    ndarray, shape (num_blocks + 1,)
        Entry ``k`` is the expected per-sample information under the
        marginal of block ``k``. The filter recursion consumes entries
        1..K; entry 0 is included for completeness but block 0 carries
        no measurement.

    Notes
    -----
    The unquantized channel gives the constant ``1 / sigma_eta^2`` without
    computing marginals. For the one-bit channel the block marginals come
    from :func:`~bitbounds.core.marginal_moments` as plain floats, and
    :func:`~bitbounds.qfim.expected_fq_batch` evaluates every distinct
    ``(mean, variance)`` pair of the call in one array quadrature: once the
    prior's offset from the stationary marginal has decayed below rounding,
    every later block repeats one pair. Each entry is bit-identical to
    :func:`~bitbounds.qfim.expected_fq` of its block's marginal.
    """
    if not isinstance(channel, MeasurementChannel):
        raise TypeError(f"channel must be a MeasurementChannel, got {channel!r}.")
    if num_blocks < 0:
        raise ValueError(f"num_blocks must be nonnegative, got {num_blocks}.")
    if channel is MeasurementChannel.UNQUANTIZED:
        return np.full(num_blocks + 1, 1.0 / model.sigma_eta**2)
    moments = marginal_moments(model, range(num_blocks + 1))
    row_of: dict[tuple[float, float], int] = {}
    rows = [row_of.setdefault(pair, len(row_of)) for pair in moments]
    means, variances = zip(*row_of)
    return expected_fq_batch(means, variances, model.sigma_eta, spec)[rows]


def filtered_information(model: GaussMarkovModel, fims: np.ndarray) -> np.ndarray:
    """Filtered information per block, from the :func:`per_block_fims` array.

    The forward counterpart of :func:`smoothing_gain`: entry 0 is the prior
    information ``1/sigma0^2`` (``fims[0]`` is not consumed), and entry ``k``
    is one :func:`~bitbounds.core.forward_info_step` from entry ``k - 1``
    with ``fims[k]``. The result has the length of ``fims``.
    """
    fims = np.asarray(fims, dtype=float)
    if fims.ndim != 1 or fims.shape[0] < 1:
        raise ValueError(f"fims must have shape (K + 1,), got {fims.shape}.")
    j = 1.0 / model.sigma0**2
    values = [j]
    for fim in fims.tolist()[1:]:
        j = forward_info_step(model, j, fim)
        values.append(j)
    return np.array(values)


def filter_bim_sequence(model: GaussMarkovModel, channel: MeasurementChannel,
                        num_blocks: int,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> BimSequence:
    """Filtered information for blocks 0..num_blocks.

    Block 0 holds the prior information; each later block folds in one
    transition and the expected measurement information under that block's
    marginal (:func:`filtered_information`).

    Returns
    -------
    BimSequence
        Length ``num_blocks + 1``.
    """
    fims = per_block_fims(model, channel, num_blocks, spec)
    return BimSequence(filtered_information(model, fims))


def predict_bim(model: GaussMarkovModel, filtered: BimSequence, num_steps: int) -> BimSequence:
    """Predicted information for the ``num_steps`` blocks past the last of ``filtered``.

    Iterates measurement-free forward steps from ``filtered.values[-1]``,
    which contract toward the model-only fixed point
    ``(1 - alpha^2) / sigma_z^2`` of a stationary chain. A smoothed
    sequence ends on the filtered value (its last gain is zero), so it
    predicts the same values.

    Returns
    -------
    BimSequence
        Length ``num_steps + 1`` (``num_steps`` nonnegative); entry ``m``
        refers to ``m`` blocks past the last measurement.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be nonnegative, got {num_steps}.")
    j = float(filtered.values[-1])
    values = [j]
    for _ in range(num_steps):
        j = forward_info_step(model, j)
        values.append(j)
    return BimSequence(values)


def smoothing_gain(model: GaussMarkovModel, fims: np.ndarray) -> np.ndarray:
    """Information gained by smoothing, per block, from the :func:`per_block_fims` array.

    The backward counterpart of :func:`filtered_information`. With ``K``
    the last block of ``fims``, the gain
    ``kappa(l | K) = J(l | K) - J(l | l)`` obeys its own backward
    recursion that needs only the expected measurement informations, not
    the filtered sequence: ``kappa(K) = 0``, and ``kappa(l)`` is one
    :func:`~bitbounds.core.gain_step` from ``kappa(l + 1)`` with
    ``fims[l + 1]``. The result has the length of ``fims``; every entry is
    nonnegative and the last is zero. The gains given measurements up to an
    earlier block ``k`` are those of ``fims[:k + 1]``.
    """
    fims = np.asarray(fims, dtype=float)
    if fims.ndim != 1 or fims.shape[0] < 1:
        raise ValueError(f"fims must have shape (K + 1,), got {fims.shape}.")
    kappa = 0.0
    gains = [kappa]
    for fim in reversed(fims.tolist()[1:]):
        kappa = gain_step(model, kappa, fim)
        gains.append(kappa)
    gains.reverse()
    return np.array(gains)


def smooth_bim_compact(model: GaussMarkovModel, channel: MeasurementChannel, num_blocks: int,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> BimSequence:
    """Smoothed information of blocks 0..num_blocks given measurements 1..num_blocks.

    Uses the decomposition ``J(l|K) = J(l|l) + kappa(l|K)``: the filtered
    term and the smoothing gain are computed from one array of expected
    measurement informations and added, so no step subtracts informations.

    Returns
    -------
    BimSequence
        Length ``num_blocks + 1``; the last entry is the filtered value.
    """
    fims = per_block_fims(model, channel, num_blocks, spec)
    return BimSequence(filtered_information(model, fims) + smoothing_gain(model, fims))
