"""Argument checks: every library check raises one typed error."""

import math

import pytest

from dtmseries import (
    Const,
    Deriv,
    DtmError,
    Equation,
    InvalidArgumentError,
    Pow,
    RecurrencePlan,
    Scale,
    Series,
    U,
    XPow,
    analytic_theta_roots,
    bratu_plan,
    compare,
    derivative_transform,
    lower,
    monomial,
    parse,
    pow_int,
    pow_naive,
    run,
    shoot,
    zeros,
)

S = Series([1.0, 2.0, 3.0])
PLAN = lower(parse("D(u,2) = u"), 5)

CHECKS = {
    "zeros": lambda: zeros(-1),
    "monomial_power": lambda: monomial(-1, 3),
    "monomial_order": lambda: monomial(0, -1),
    "empty_series": lambda: Series([]),
    "nan_series": lambda: Series([math.nan]),
    "derivative_order": lambda: derivative_transform(S, -1),
    "pow_int": lambda: pow_int(S, -1),
    "pow_naive": lambda: pow_naive(S, -1),
    "lhs_order": lambda: lower(Equation(0, U()), 3),
    "order_below_ics": lambda: lower(parse("D(u,2) = u"), 0),
    "deriv_node": lambda: lower(Equation(2, Deriv(0)), 3),
    "pow_node": lambda: lower(Equation(1, Pow(U(), 0)), 3),
    "xpow_node": lambda: lower(Equation(1, XPow(-1)), 3),
    "const_too_large": lambda: Equation(1, Const(10**400)),
    "scale_too_large": lambda: Equation(1, Scale(10**400, U())),
    "const_inf": lambda: Equation(1, Const(math.inf)),
    "const_nan": lambda: Equation(1, Const(math.nan)),
    "plan_order": lambda: RecurrencePlan(Equation(2, U()), 0),
    "run_length": lambda: run(PLAN, [1.0]),
    "run_nan": lambda: run(PLAN, [1.0, math.nan]),
    "run_too_large": lambda: run(lower(parse("D(u,1) = u"), 3), (10**400,)),
    "bratu_order": lambda: bratu_plan(1.0, 2),
    "branch": lambda: shoot(1.0, 30, "middle"),
    "lambda": lambda: analytic_theta_roots(0.0),
    "grid": lambda: compare(1.0, 30, 1, "lower"),
}


@pytest.mark.parametrize("call", CHECKS.values(), ids=CHECKS.keys())
def test_argument_check_raises_typed_error(call):
    with pytest.raises(InvalidArgumentError) as err:
        call()
    assert isinstance(err.value, DtmError)
    assert isinstance(err.value, ValueError)
