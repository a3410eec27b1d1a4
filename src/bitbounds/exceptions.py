"""Exception types raised by the grid estimators and the quadrature."""

from __future__ import annotations


class NumericalDegeneracyError(ArithmeticError):
    """A grid posterior or backward evidence lost all its mass.

    Carries the block index at which it happened so callers can report the
    offending step.
    """

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


class QuadratureError(ArithmeticError):
    """A quadrature rule produced a non-finite node or weight contribution."""

    def __init__(self, message: str, node: float | None = None):
        super().__init__(message)
        self.node = node

