"""Exception types raised by the bound recursions and solvers."""

from __future__ import annotations


class NumericalDegeneracyError(ArithmeticError):
    """An inner matrix in an information recursion is not positive definite.

    Carries the block index at which the factorization failed so sweeps
    can report the offending step.
    """

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


class QuadratureError(ArithmeticError):
    """A quadrature rule produced a non-finite node or weight contribution."""

    def __init__(self, message: str, node: float | None = None):
        super().__init__(message)
        self.node = node

