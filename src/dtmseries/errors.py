"""Exception types shared across the package.

The CLI maps these onto stable exit codes: invalid arguments
(:class:`InvalidArgumentError`), malformed equations and malformed series
files exit 2, mathematical domain errors exit 3, and a missing solution
branch exits 4.
"""

from __future__ import annotations


class DtmError(Exception):
    """Base class for all errors raised by dtmseries."""


class InvalidArgumentError(DtmError, ValueError):
    """Argument outside its documented range (negative order, NaN, ...); exit 2."""


class OrderMismatchError(DtmError):
    """Binary series operation applied to operands of different truncation orders.

    Align the truncation orders explicitly before combining series; silent
    padding is never performed.
    """


class SeriesFormatError(DtmError):
    """Series file (JSON or CSV) does not match the documented format."""


class DomainError(DtmError):
    """Operation applied outside its mathematical domain (e.g. 0^0)."""


class EquationError(DtmError):
    """Base class for malformed equations."""


class EquationSyntaxError(EquationError):
    """Equation text violates the grammar; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ImplicitFormError(EquationError):
    """Right-hand side references a derivative of order >= the isolated one."""


class NonFiniteCoefficientError(DtmError):
    """A recurrence step produced NaN or infinity."""

    def __init__(self, order: int):
        super().__init__(f"non-finite coefficient produced at order {order}")
        self.order = order


class BranchNotFoundError(DtmError):
    """The requested solution branch does not exist at this parameter value,
    or shooting found no point on it whose residual is within tolerance."""
