"""Argument checks: every library check raises one typed error."""

import math
import re

import pytest

from dtmseries import errors
from dtmseries import (
    Const,
    Deriv,
    DomainError,
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
    analytic_u,
    boundary_residual,
    bratu_coeffs,
    bratu_plan,
    compare,
    derivative_transform,
    evaluate,
    exp_series,
    format_equation,
    format_series,
    load_series,
    lower,
    monomial,
    mul,
    parse,
    pow_int,
    pow_naive,
    run,
    scale,
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
    # Integer fields must be ints, not floats or bools: the executor's
    # source holds them as written.
    "lhs_order_float": lambda: Equation(2.0, U()),
    "lhs_order_bool": lambda: Equation(True, U()),
    "deriv_float": lambda: Equation(2, Deriv(1.5)),
    "deriv_bool": lambda: Equation(2, Deriv(True)),
    "xpow_float": lambda: Equation(1, XPow(2.0)),
    "xpow_bool": lambda: Equation(1, XPow(True)),
    "pow_float": lambda: Equation(1, Pow(U(), 2.5)),
    "pow_bool": lambda: Equation(1, Pow(U(), True)),
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
    # A lambda that does not compare with floats, a string or None.
    "lambda_str": lambda: shoot("1", 30, "lower"),
    "lambda_none": lambda: analytic_theta_roots(None),
    "grid": lambda: compare(1.0, 30, 1, "lower"),
    "grid_str": lambda: compare(1.0, 30, "5", "lower"),
    # A number must be a number: not None, and not text that float() parses.
    "plan_lambda_str": lambda: bratu_plan("1", 30),
    "coeffs_lambda_str": lambda: bratu_coeffs("1", 0.5, 30),
    "coeffs_lambda_none": lambda: bratu_coeffs(None, 0.5, 30),
    "series_none": lambda: Series([None]),
    "series_str": lambda: Series(["1", "2"]),
    "series_bytes": lambda: Series([b"1"]),
    "const_none": lambda: Equation(1, Const(None)),
    "const_bytearray": lambda: Equation(1, Const(bytearray(b"1"))),
    "scale_str": lambda: Equation(1, Scale("2", U())),
    "run_str": lambda: run(PLAN, ["1.0", "2.0"]),
    "evaluate_str": lambda: evaluate(Series([1.0, 2.0]), "1"),
    "evaluate_none": lambda: evaluate(Series([1.0, 2.0]), None),
    "evaluate_inf": lambda: evaluate(Series([1.0, 2.0]), math.inf),
    "analytic_u_none": lambda: analytic_u(None, 0.5),
    "analytic_u_inf": lambda: analytic_u(math.inf, 0.5),
    "scale_factor_str": lambda: scale("2", S),
    "scale_factor_none": lambda: scale(None, S),
    "scale_factor_inf": lambda: scale(math.inf, S),
    # Arguments of the wrong kind: not a str, a sequence or a Series.
    "load_series_none": lambda: load_series(None),
    "parse_none": lambda: parse(None),
    "parse_bytes": lambda: parse(b"D(u,1) = u"),
    "parse_list": lambda: parse(["D(u,1) = u"]),
    "parse_dict": lambda: parse({}),
    "series_int": lambda: Series(5),
    "series_of_none": lambda: Series(None),
    # A mapping or a set: its iteration order is not its coefficients'.
    "series_dict": lambda: Series({1: 2.0, 3: 4.0}),
    "series_set": lambda: Series({1.0, 2.0}),
    "series_frozenset": lambda: Series(frozenset([1.0])),
    "series_dict_keys": lambda: Series({1.0: 0}.keys()),
    "run_dict": lambda: run(PLAN, {0: 1.0, 1: 2.0}),
    "run_set": lambda: run(PLAN, {1.0, 2.0}),
    "run_float": lambda: run(PLAN, 1.0),
    "mul_list": lambda: mul([1.0, 2.0], S),
    "exp_series_list": lambda: exp_series([1.0, 2.0]),
    "format_series_list": lambda: format_series([1.0, 2.0]),
    "derivative_list": lambda: derivative_transform([1.0, 2.0], 1),
    "boundary_residual_list": lambda: boundary_residual([1.0, 2.0]),
    "pow_int_list": lambda: pow_int([1.0, 2.0], 1),
    # An equation or plan of the wrong kind: text, None, or an Equation
    # where a plan belongs.
    "lower_text": lambda: lower("D(u,1) = u", 5),
    "lower_none": lambda: lower(None, 5),
    "plan_text": lambda: RecurrencePlan("x", 3),
    "run_text": lambda: run("plan", [1.0]),
    "run_equation": lambda: run(parse("D(u,1) = u"), [1.0]),
    "format_equation_text": lambda: format_equation("D(u,1)=u"),
}


@pytest.mark.parametrize("call", CHECKS.values(), ids=CHECKS.keys())
def test_argument_check_raises_typed_error(call):
    with pytest.raises(InvalidArgumentError) as err:
        call()
    assert isinstance(err.value, DtmError)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("call, where", [
    (lambda: evaluate(Series([1e300, 1e300]), 1e300), "x=1e+300"),
    (lambda: analytic_u(3000.0, 0.5), "theta=3000.0, x=0.5"),
], ids=["evaluate", "analytic_u"])
def test_finite_arguments_whose_value_overflows_raise_a_domain_error(call, where):
    with pytest.raises(DomainError, match=re.escape(where)) as err:
        call()
    assert err.value.exit_code == 3


# Orders, powers and exponents must be ints, not floats or bools.
INT_CHECKS = {
    "lower_float": lambda: lower(parse("D(u,1) = u"), 10.0),
    "lower_bool": lambda: lower(parse("D(u,1) = u"), True),
    "pow_int_float": lambda: pow_int(S, 2.5),
    "pow_int_bool": lambda: pow_int(S, True),
    "pow_naive_float": lambda: pow_naive(S, 2.5),
    "derivative_float": lambda: derivative_transform(S, 1.5),
    "monomial_power_float": lambda: monomial(1.5, 3),
    "monomial_order_float": lambda: monomial(1, 3.0),
    "zeros_float": lambda: zeros(2.5),
    "shoot_order_float": lambda: shoot(1.0, 30.0, "lower"),
    "grid_float": lambda: compare(1.0, 30, 5.5, "lower"),
    "grid_bool": lambda: compare(1.0, 30, True, "lower"),
}


@pytest.mark.parametrize("call", INT_CHECKS.values(), ids=INT_CHECKS.keys())
def test_integer_argument_must_be_an_int(call):
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        call()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("name", ["lambda", "gamma"])
def test_bratu_paths_reject_a_non_finite_parameter_alike(name, value):
    # Both forms of the Bratu recurrence raise the same typed error, before
    # any coefficient is computed.
    lam, gamma = (value, 0.5) if name == "lambda" else (1.0, value)
    for call in (lambda: bratu_coeffs(lam, gamma, 30),
                 lambda: run(bratu_plan(lam, 30), (0.0, gamma))):
        with pytest.raises(InvalidArgumentError):
            call()


EXIT_CODES = {
    "DtmError": 2,
    "InvalidArgumentError": 2,
    "OrderMismatchError": 2,
    "SeriesFormatError": 2,
    "EquationError": 2,
    "EquationSyntaxError": 2,
    "ImplicitFormError": 2,
    "DomainError": 3,
    "NonFiniteCoefficientError": 3,
    "BranchNotFoundError": 4,
}


def test_exit_code_table_names_every_error_type():
    assert EXIT_CODES.keys() == {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, DtmError)
    }


@pytest.mark.parametrize("name, code", EXIT_CODES.items())
def test_error_type_carries_its_exit_code(name, code):
    assert getattr(errors, name).exit_code == code
