"""Truncated power-series engine for the differential transformation method.

A differential transform maps a function analytic at x = 0 to its Taylor
coefficients; differential equations then become recurrences for those
coefficients. This package provides:

- :mod:`dtmseries.series`: the immutable :class:`Series` value type and the
  linear operator table (sum, scale, product, derivative shift, monomial).
- :mod:`dtmseries.powers`: integer powers by binary powering up to m = 8
  and Miller's single-sum recurrence above, the exponential-of-series
  recurrence, and the naive constructions that serve as their oracles.
- :mod:`dtmseries.lang`: a small DSL that parses an explicit ODE
  ``D(u,m) = f(x, u, ..., D(u,m-1))`` and lowers it to a per-order
  coefficient recurrence.
- :mod:`dtmseries.bratu`: the planar Bratu boundary-value problem solved by
  shooting on the initial slope, with its closed-form reference.
- :mod:`dtmseries.cli`: the ``dtmseries`` command-line tool.
"""

from .bratu import (
    BratuSolution,
    analytic_theta_roots,
    analytic_u,
    boundary_residual,
    bratu_coeffs,
    bratu_plan,
    compare,
    shoot,
)
from .errors import (
    BranchNotFoundError,
    DomainError,
    DtmError,
    EquationError,
    EquationSyntaxError,
    ImplicitFormError,
    InvalidArgumentError,
    NonFiniteCoefficientError,
    OrderMismatchError,
    SeriesFormatError,
)
from .lang import (
    Add,
    Const,
    Deriv,
    Equation,
    Exp,
    Expr,
    Mul,
    Pow,
    RecurrencePlan,
    Scale,
    Sub,
    U,
    Var,
    XPow,
    format_equation,
    format_expr,
    lower,
    parse,
    run,
)
from .powers import exp_naive, exp_series, pow_int, pow_naive
from .series import (
    OpCount,
    Series,
    add,
    derivative_transform,
    evaluate,
    format_series,
    load_series,
    monomial,
    mul,
    scale,
    sub,
    zeros,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # series
    "Series",
    "OpCount",
    "zeros",
    "monomial",
    "add",
    "sub",
    "scale",
    "mul",
    "derivative_transform",
    "evaluate",
    "load_series",
    "format_series",
    # powers
    "pow_int",
    "pow_naive",
    "exp_series",
    "exp_naive",
    # lang
    "Const",
    "Var",
    "XPow",
    "U",
    "Deriv",
    "Add",
    "Sub",
    "Mul",
    "Scale",
    "Pow",
    "Exp",
    "Expr",
    "Equation",
    "RecurrencePlan",
    "parse",
    "format_expr",
    "format_equation",
    "lower",
    "run",
    # bratu
    "BratuSolution",
    "bratu_coeffs",
    "bratu_plan",
    "boundary_residual",
    "shoot",
    "analytic_theta_roots",
    "analytic_u",
    "compare",
    # errors
    "DtmError",
    "InvalidArgumentError",
    "OrderMismatchError",
    "SeriesFormatError",
    "DomainError",
    "EquationError",
    "EquationSyntaxError",
    "ImplicitFormError",
    "NonFiniteCoefficientError",
    "BranchNotFoundError",
]
