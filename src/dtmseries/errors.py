"""Exception types shared across the package.

Each type carries the exit code of the CLI as ``exit_code``: 2 for any
:class:`DtmError` (a bad argument, a malformed equation or series file),
3 for a domain error or an overflowing coefficient, 4 when shooting has
no answer on the requested solution branch.
"""

from __future__ import annotations


class DtmError(Exception):
    """Base class for all errors raised by dtmseries."""

    exit_code = 2


class InvalidArgumentError(DtmError, ValueError):
    """Argument outside its documented range (negative order, NaN, a string, ...)."""


class OrderMismatchError(DtmError):
    """Binary series operation applied to operands of different truncation orders.

    Align the truncation orders explicitly before combining series; silent
    padding is never performed.
    """


class SeriesFormatError(DtmError):
    """Series file (JSON or CSV) does not match the documented format."""


class DomainError(DtmError):
    """Operation applied outside its mathematical domain (e.g. 0^0)."""

    exit_code = 3


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

    exit_code = 3

    def __init__(self, order: int):
        super().__init__(f"non-finite coefficient produced at order {order}")
        self.order = order


class BranchNotFoundError(DtmError):
    """No series of the requested solution branch converges where the
    boundary condition is applied (above the fold included), the shooting
    climb found no sign change, or shooting found no point whose residual
    is within tolerance."""

    exit_code = 4
