"""The complementary error function ``erfc`` and its scaled form ``erfcx`` in numpy.

``erfcx(x) = exp(x^2) erfc(x)`` is smooth and slowly varying for ``x >= 0``,
so it is tabulated there:

- on ``[0, 16)``, a degree-8 polynomial per interval of width 1/16, in the
  local variable ``s = 16 x - k`` of interval ``k`` (coefficients in
  :mod:`._tables`, written by ``tools/make_erf_tables.py``), evaluated by
  Horner's rule. Narrow intervals keep the degree, hence the number of
  numpy calls per evaluation, low: a 64-node call costs its operations'
  overhead, not their arithmetic;
- from 16 up, the Laplace continued fraction
  ``1 / (sqrt(pi) (x + (1/2) / (x + (2/2) / (x + (3/2) / ...))))``,
  whose first 8 terms are exact to double precision there.

The polynomials reach 16 so that a Gauss-Hermite rule of up to 128 nodes on
a zero-mean state never takes the slower continued fraction: its largest
node is 15.29. Negative arguments use ``erfcx(-x) = 2 exp(x^2) - erfcx(x)``
and ``erfc(-x) = 2 - erfc(x)``. ``erfcx(0)`` and ``erfc(0)`` are exactly 1.
"""

from __future__ import annotations

import math

import numpy as np

from ._tables import ERFCX_POLYNOMIALS, ERFCX_STEPS_PER_UNIT

# Rows: the coefficients of s**8 .. s**1 of every interval, then the low and
# the high part of s**0, so Horner's rule reads the rows in order.
_COEFFICIENTS = np.array([line.split() for line in ERFCX_POLYNOMIALS.split("\n") if line],
                         dtype=float).T[::-1].copy()
_STEPS_PER_UNIT = float(ERFCX_STEPS_PER_UNIT)
_LAST_INTERVAL = float(_COEFFICIENTS.shape[1] - 1)
_POLYNOMIAL_END = (_LAST_INTERVAL + 1.0) / _STEPS_PER_UNIT
_FRACTION_TERMS = 8
_BLOCK = 8192
_RSQRT_PI = 1.0 / math.sqrt(math.pi)
# Clears the low 27 of the 52 stored mantissa bits: the 26 bits left square exactly.
_HIGH_BITS = np.int64(-(1 << 27))


def erfcx_erfc(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``erfcx(x)`` and ``erfc(x)`` of an array whose entries are ``>= 0`` or NaN.

    Both from one polynomial evaluation: ``erfc(x) = exp(-x^2) erfcx(x)``,
    with ``x^2`` rounded before the exponential, which moves ``erfc`` by up
    to 300 ulp at x = 26 but not ``2 - erfc(x)``, the value that
    :func:`erfc` gives at ``-x``. Large arrays go through in blocks of
    ``_BLOCK`` entries, which keeps the gathered coefficients in cache:
    twice as fast as one pass at 32768 entries.
    """
    flat = x.reshape(-1)
    if flat.size <= _BLOCK:
        scaled, plain = _erfcx_erfc_block(flat)
        return scaled.reshape(x.shape), plain.reshape(x.shape)
    scaled, plain = np.empty_like(flat), np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        scaled[block], plain[block] = _erfcx_erfc_block(flat[block])
    return scaled.reshape(x.shape), plain.reshape(x.shape)


def _erfcx_erfc_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`erfcx_erfc` of a 1-D array.

    Horner's rule gathers one row of coefficients at a time into one buffer
    and takes 17 in-place operations over the polynomial range; only a call
    with an entry of 16 or more, or a NaN, pays for the clamps and the
    continued fraction.
    """
    tail = None
    squared = x
    if x.size and not x.max() < _POLYNOMIAL_END:
        tail = x >= _POLYNOMIAL_END
        # exp(-x^2) is 0 from 27.3 up; the clamp keeps x^2 from overflowing.
        squared = np.minimum(x, 40.0)
        # These clamps keep the polynomial finite where the fraction
        # replaces it; fmin maps NaN to the last interval, where the
        # polynomial returns NaN.
        scaled = np.minimum(x, _POLYNOMIAL_END) * _STEPS_PER_UNIT
        interval = np.fmin(scaled, _LAST_INTERVAL).astype(np.intp)
    else:
        scaled = x * _STEPS_PER_UNIT
        interval = scaled.astype(np.intp)
    s = np.subtract(scaled, interval, out=scaled)
    row = _COEFFICIENTS[0].take(interval)
    value = row * s
    for coefficients in _COEFFICIENTS[1:-2]:
        value += coefficients.take(interval, out=row)
        value *= s
    value += _COEFFICIENTS[-2].take(interval, out=row)
    value += _COEFFICIENTS[-1].take(interval, out=row)
    if tail is not None:
        xt = x[tail]
        fraction = xt.copy()
        for k in range(_FRACTION_TERMS, 0, -1):
            fraction = xt + (0.5 * k) / fraction
        value[tail] = _RSQRT_PI / fraction
    plain = np.square(squared)
    np.negative(plain, out=plain)
    np.exp(plain, out=plain)
    plain *= value
    return value, plain


def erfcx(x):
    """Scaled complementary error function ``exp(x^2) erfc(x)``.

    Within 2 ulp of the exact value for ``x >= 0``; a scalar for 0-d input.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    value = erfcx_erfc(np.abs(flat))[0]
    negative = flat < 0.0
    if negative.any():
        # erfcx(x) = 2 exp(x^2) - erfcx(-x) overflows to inf below about -26.6.
        with np.errstate(over="ignore"):
            value[negative] = 2.0 * np.exp(np.square(flat[negative])) - value[negative]
    return value.reshape(x.shape)[()]


def erfc(x):
    """Complementary error function, as ``exp(-x^2) erfcx(x)`` for ``x >= 0``.

    A scalar for 0-d input; ``erfc(x) = 2 - erfc(-x)`` for ``x < 0``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    a = np.abs(flat)
    value = erfcx_erfc(a)[1]
    # With r = x^2 - fl(x^2) exact, exp(-x^2) = exp(-fl(x^2)) (1 - r) to
    # double precision, which takes out the rounding of x^2 for x > 0.
    np.subtract(value, value * _square_rounding(a), out=value, where=flat > 0.0)
    np.subtract(2.0, value, out=value, where=flat < 0.0)
    return value.reshape(x.shape)[()]


def _square_rounding(x: np.ndarray) -> np.ndarray:
    """``x^2 - fl(x^2)`` for ``x >= 0`` by Dekker's exact product, with x clamped to 40."""
    x = np.minimum(x, 40.0)
    high = (x.view(np.int64) & _HIGH_BITS).view(np.float64)
    low = x - high
    rounding = high * high
    rounding -= x * x
    rounding += 2.0 * high * low
    rounding += low * low
    return rounding
