"""The package's own erfcx and erfc against 40-digit mpmath, with scipy as a second oracle.

``bitbounds._erf`` replaces ``scipy.special.erfcx``/``erfc``: a polynomial
table on [0, 16) in intervals of 1/16 and a continued fraction above. The
table and the frozen 128-node Gauss-Hermite rule are generated by
``tools/make_erf_tables.py``, which the last test reruns.
"""
import importlib.util
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special

from bitbounds import _erf, q_function

ROOT = Path(__file__).resolve().parents[1]
EDGES = np.arange(1, 257) / 16.0  # interval edges; 16.0 is the switch to the fraction


def _ulps(got, exact) -> np.ndarray:
    """Signed distance of each double in ``got`` from its mpmath value, in ulp of the value."""
    with mpmath.workdps(40):
        return np.array([float((mpmath.mpf(float(g)) - e) / mpmath.mpf(math.ulp(float(e))))
                         for g, e in zip(got, exact)])


def _exact(function, xs):
    with mpmath.workdps(40):
        return [function(mpmath.mpf(float(x))) for x in xs]


def _erfcx_exact(x):
    return mpmath.exp(x * x) * mpmath.erfc(x)


def _both_sides(points):
    return np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, np.inf)])


def test_erfcx_within_2_ulp_of_mpmath():
    xs = np.unique(np.concatenate([np.logspace(-12, 5, 1500), np.linspace(0.0, 16.0, 4000),
                                   _both_sides(EDGES)]))
    errors = np.abs(_ulps(_erf.erfcx(xs), _exact(_erfcx_exact, xs)))
    assert errors.max() <= 2.0, (xs[errors.argmax()], errors.max())
    # The constant terms, stored as two doubles each, keep the polynomials
    # within 1 ulp; without the low parts they reach about 1.5.
    polynomial = xs < 16.0
    assert errors[polynomial].max() <= 1.0, errors[polynomial].max()


def test_erfcx_of_negative_arguments():
    xs = -np.logspace(-12, math.log10(26.0), 200)
    exact = _exact(_erfcx_exact, xs)
    errors = np.abs(_ulps(_erf.erfcx(xs), exact)) - np.abs(_ulps(special.erfcx(xs), exact))
    assert errors.max() <= 2.0


def _signed_points():
    positive = np.unique(np.concatenate([np.logspace(-12, math.log10(27.0), 1500),
                                         _both_sides(EDGES[EDGES < 27.0])]))
    return np.concatenate([-positive[::-1], [0.0], positive])


def test_erfc_never_further_from_mpmath_than_scipy_plus_2_ulp():
    xs = _signed_points()
    exact = _exact(mpmath.erfc, xs)
    ours = np.abs(_ulps(_erf.erfc(xs), exact))
    theirs = np.abs(_ulps(special.erfc(xs), exact))
    worst = np.argmax(ours - theirs)
    assert ours[worst] <= theirs[worst] + 2.0, (xs[worst], ours[worst], theirs[worst])


def test_q_function_never_further_from_mpmath_than_scipy_plus_2_ulp():
    # Both sides evaluate erfc at the same double x / sqrt(2), whose rounding
    # moves Q by up to 1000 ulp near x = 34 (2 z^2 half-ulps of z); the
    # reference is Q at that double, so the comparison sees the erfc alone.
    xs = _signed_points() * math.sqrt(2.0)
    exact = _exact(lambda z: mpmath.erfc(z) / 2, xs / math.sqrt(2.0))
    ours = np.abs(_ulps(q_function(xs), exact))
    theirs = np.abs(_ulps(0.5 * special.erfc(xs / math.sqrt(2.0)), exact))
    worst = np.argmax(ours - theirs)
    assert ours[worst] <= theirs[worst] + 2.0, (xs[worst], ours[worst], theirs[worst])


def test_special_values_are_exact():
    assert _erf.erfcx(0.0) == 1.0 and _erf.erfcx(-0.0) == 1.0
    assert _erf.erfc(0.0) == 1.0 and _erf.erfc(-0.0) == 1.0
    assert q_function(0.0) == 0.5 and q_function(-0.0) == 0.5
    inf = math.inf
    assert list(_erf.erfcx(np.array([inf, -inf]))) == [0.0, inf]
    assert list(_erf.erfc(np.array([inf, -inf]))) == [0.0, 2.0]
    assert list(q_function(np.array([inf, -inf]))) == [0.0, 1.0]


def test_nan_propagates_in_every_position():
    for function in (_erf.erfcx, _erf.erfc, q_function):
        values = function(np.array([np.nan, 0.5, 20.0, -3.0, np.nan]))
        assert np.isnan(values[[0, 4]]).all() and np.isfinite(values[1:4]).all()
        assert math.isnan(function(math.nan))


@pytest.mark.parametrize("function", [_erf.erfcx, _erf.erfc, q_function])
def test_shapes(function):
    assert isinstance(function(0.7), np.float64)
    assert function(np.array(0.7)) == function(np.array([0.7]))[0]
    assert function(np.empty((0, 3))).shape == (0, 3)
    grid = np.linspace(-3.0, 30.0, 12).reshape(3, 4)
    assert np.array_equal(function(grid), function(grid.ravel()).reshape(3, 4))


def test_blocks_of_a_large_array_equal_one_call_each():
    xs = np.linspace(0.0, 20.0, 3 * _erf._BLOCK + 5)
    pieces = [_erf.erfcx(xs[i:i + _erf._BLOCK]) for i in range(0, xs.size, _erf._BLOCK)]
    assert np.array_equal(_erf.erfcx(xs), np.concatenate(pieces))


def test_extreme_arguments_raise_no_warning():
    xs = np.array([1e-320, 1e154, 1e300, np.finfo(float).max, -1e300, -30.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_erf.erfc(xs), special.erfc(xs))
        assert np.array_equal(_erf.erfcx(xs[:4]) > 0.0, [True] * 4)
        assert np.isinf(_erf.erfcx(xs[4:])).all()
        q_function(xs)


def test_tables_regenerate_byte_for_byte():
    spec = importlib.util.spec_from_file_location("make_erf_tables",
                                                  ROOT / "tools" / "make_erf_tables.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.render() == (ROOT / "src" / "bitbounds" / "_tables.py").read_text()
