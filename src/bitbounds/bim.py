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

Block 0 carries the prior only; measurements enter at blocks 1..K.
"""

from __future__ import annotations

import enum
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
    "BimKind",
    "BimSequence",
    "per_block_fims",
    "filtered_information",
    "filter_bim_sequence",
    "predict_bim",
    "smoothing_gain",
    "smooth_bim_compact",
]


class BimKind(enum.Enum):
    FILTER = "filter"
    PREDICT = "predict"
    SMOOTH = "smooth"


@dataclass(frozen=True)
class BimSequence:
    """A sequence of per-block Bayesian informations.

    Parameters
    ----------
    kind : BimKind
        Which recursion produced the sequence.
    values : ndarray, shape (L,)
        ``FILTER``: ``values[k]`` is the information of block ``k`` given
        measurements 1..k. ``PREDICT``: ``values[m]`` is the information of
        block ``anchor + m`` given measurements 1..anchor. ``SMOOTH``:
        ``values[l]`` is the information of block ``l`` given measurements
        1..anchor.
    anchor : int or None
        Conditioning block for ``PREDICT`` and ``SMOOTH`` sequences.
    """

    kind: BimKind
    values: np.ndarray
    anchor: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError(f"values must have shape (L,) with L >= 1, got {values.shape}.")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite.")
        object.__setattr__(self, "values", values)
        if self.anchor is not None and not 0 <= self.anchor:
            raise ValueError(f"anchor must be a nonnegative block index, got {self.anchor}.")

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
        ``kind`` FILTER, length ``num_blocks + 1``.
    """
    fims = per_block_fims(model, channel, num_blocks, spec)
    return BimSequence(BimKind.FILTER, filtered_information(model, fims))


def predict_bim(model: GaussMarkovModel, filtered: BimSequence, num_steps: int,
                anchor: int | None = None) -> BimSequence:
    """Predicted information for blocks anchor..anchor+num_steps.

    Iterates measurement-free forward steps from a filtered information.
    As the horizon grows the values contract toward the model-only fixed
    point, ``(1 - alpha^2) / sigma_z^2`` for a stationary chain.

    Parameters
    ----------
    model : GaussMarkovModel
    filtered : BimSequence
        A FILTER sequence for the same model.
    num_steps : int
        Number of blocks to predict ahead; must be nonnegative.
    anchor : int, optional
        Block whose filtered information seeds the prediction; defaults to
        the last block of ``filtered``.

    Returns
    -------
    BimSequence
        ``kind`` PREDICT, length ``num_steps + 1``; entry ``m`` refers to
        block ``anchor + m``.
    """
    if filtered.kind is not BimKind.FILTER:
        raise ValueError(f"predict_bim requires a FILTER sequence, got {filtered.kind}.")
    if num_steps < 0:
        raise ValueError(f"num_steps must be nonnegative, got {num_steps}.")
    if anchor is None:
        anchor = len(filtered) - 1
    if not 0 <= anchor < len(filtered):
        raise ValueError(f"anchor {anchor} outside filtered sequence of length {len(filtered)}.")
    j = float(filtered.values[anchor])
    values = [j]
    for _ in range(num_steps):
        j = forward_info_step(model, j)
        values.append(j)
    return BimSequence(BimKind.PREDICT, values, anchor=anchor)


def smoothing_gain(model: GaussMarkovModel, fims: np.ndarray, anchor: int) -> np.ndarray:
    """Information gained by smoothing, per block.

    The gain ``kappa(l | anchor) = J(l | anchor) - J(l | l)`` obeys its own
    backward recursion that needs only the expected measurement
    informations, not the filtered sequence: ``kappa(anchor) = 0``, and
    ``kappa(l)`` is one :func:`~bitbounds.core.gain_step` from
    ``kappa(l + 1)`` with ``fims[l + 1]``.

    Parameters
    ----------
    model : GaussMarkovModel
    fims : ndarray
        Expected measurement information per block, indexed by block;
        entries l+1..anchor are consumed.
    anchor : int
        Last measurement block conditioned on.

    Returns
    -------
    ndarray, shape (anchor + 1,)
        Entry ``l`` is ``kappa(l | anchor)``; every entry is nonnegative
        and entry ``anchor`` is zero.
    """
    fims = np.asarray(fims, dtype=float)
    if not 0 <= anchor < fims.shape[0]:
        raise ValueError(f"anchor {anchor} outside fims of length {fims.shape[0]}.")
    kappa = 0.0
    gains = [kappa]
    for fim in reversed(fims[1 : anchor + 1].tolist()):
        kappa = gain_step(model, kappa, fim)
        gains.append(kappa)
    gains.reverse()
    return np.array(gains)


def smooth_bim_compact(model: GaussMarkovModel, channel: MeasurementChannel, anchor: int,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> BimSequence:
    """Smoothed information via the decomposition ``J(l|k) = J(l|l) + kappa(l|k)``.

    The filtered term and the smoothing gain are computed from one array of
    expected measurement informations and added, so no step subtracts
    informations.

    Returns
    -------
    BimSequence
        ``kind`` SMOOTH, length ``anchor + 1``.
    """
    if anchor < 0:
        raise ValueError(f"anchor must be nonnegative, got {anchor}.")
    fims = per_block_fims(model, channel, anchor, spec)
    values = filtered_information(model, fims) + smoothing_gain(model, fims, anchor)
    return BimSequence(BimKind.SMOOTH, values, anchor=anchor)
