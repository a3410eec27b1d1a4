"""Write ``src/bitbounds/_tables.py``: the erfcx polynomials and the default Hermite rule.

Usage: ``python tools/make_erf_tables.py``

- Line ``k`` of ``ERFCX_POLYNOMIALS`` holds the monomial coefficients,
  lowest degree first, of a degree-8 polynomial in ``s = 16 x - k`` that
  matches ``erfcx(x)`` on ``[k/16, (k+1)/16)``, for ``k = 0..255``. Each
  polynomial interpolates ``erfcx`` at the 9 Chebyshev-Lobatto points of
  its interval, computed with 40-digit ``mpmath``, so its constant term is
  ``erfcx(k/16)``; the interpolation error is below 4e-18 relative. The
  constant term is written as two doubles, the correctly rounded value
  (exactly 1 at ``k = 0``) and the rounded remainder, which takes its
  rounding error out of the result.
- ``HERMGAUSS_128`` is numpy's own ``hermgauss(128)``, a line of nodes
  and a line of weights, so the frozen rule is bit-identical to numpy's.

Floats are written by ``repr``, which reads back to the same double.
``tests/test_erf.py`` reruns :func:`render` and compares the file byte for
byte. ``mpmath`` is needed here and in the tests, never at run time.
"""

from __future__ import annotations

from pathlib import Path

TABLES = Path(__file__).resolve().parents[1] / "src" / "bitbounds" / "_tables.py"

STEPS_PER_UNIT = 16
INTERVALS = 256
DEGREE = 8
DIGITS = 40
HERMGAUSS_NODES = 128


def erfcx_polynomials() -> list[list[float]]:
    import mpmath as mp

    with mp.workdps(DIGITS):
        points = [(1 - mp.cos(mp.pi * j / DEGREE)) / 2 for j in range(DEGREE + 1)]
        vandermonde = mp.matrix([[s**i for i in range(DEGREE + 1)] for s in points])
        table = []
        for k in range(INTERVALS):
            values = mp.matrix([mp.erfc(x) * mp.exp(x * x)
                                for x in ((k + s) / STEPS_PER_UNIT for s in points)])
            constant, *rest = mp.lu_solve(vandermonde, values)
            high = float(constant)
            table.append([high, float(constant - high)] + [float(c) for c in rest])
    return table


def hermgauss_128() -> tuple[list[float], list[float]]:
    import numpy as np

    nodes, weights = np.polynomial.hermite.hermgauss(HERMGAUSS_NODES)
    return nodes.tolist(), weights.tolist()


def render() -> str:
    lines = [
        '"""Frozen numeric tables. Generated by tools/make_erf_tables.py; do not edit.',
        "",
        "Each table is text, one row per line, because a module of float literals",
        "takes milliseconds to compile on every import without cached bytecode.",
        '"""',
        "",
        f"# erfcx on [k/{STEPS_PER_UNIT}, (k+1)/{STEPS_PER_UNIT}), k = 0..{INTERVALS - 1},"
        " one line per k:",
        f"# the coefficient of s**0 as a sum of two doubles, then those of s**1 .. s**{DEGREE},",
        f"# s = {STEPS_PER_UNIT} x - k.",
        f"ERFCX_STEPS_PER_UNIT = {STEPS_PER_UNIT}",
        'ERFCX_POLYNOMIALS = """',
    ]
    lines += [" ".join(map(repr, row)) for row in erfcx_polynomials()]
    lines += ['"""', "",
              f"# numpy.polynomial.hermite.hermgauss({HERMGAUSS_NODES}): nodes, then weights.",
              'HERMGAUSS_128 = """']
    lines += [" ".join(map(repr, row)) for row in hermgauss_128()]
    lines += ['"""', ""]
    return "\n".join(lines)


if __name__ == "__main__":
    TABLES.write_text(render())
