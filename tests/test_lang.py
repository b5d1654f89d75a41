"""Equation DSL: grammar, printer, lowering, and stepping."""

import importlib
import io
import math
import random
import sys
import threading
import tokenize
from array import array
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from dtmseries import (
    Add,
    Const,
    Deriv,
    Equation,
    EquationError,
    EquationSyntaxError,
    Exp,
    ImplicitFormError,
    InvalidArgumentError,
    Mul,
    NonFiniteCoefficientError,
    OpCount,
    Pow,
    Scale,
    Series,
    Sub,
    U,
    Var,
    XPow,
    add,
    bratu_coeffs,
    bratu_plan,
    cli,
    derivative_transform,
    exp_naive,
    format_equation,
    lang,
    lower,
    monomial,
    mul,
    parse,
    pow_naive,
    powers,
    run,
)
from dtmseries.series import _Record
from util import divide, program, relgap, slot_series


class TestParseGolden:
    """One golden parse per grammar production."""

    def test_number(self):
        assert parse("D(u,1) = 2.5").rhs == Const(2.5)

    def test_signed_number(self):
        assert parse("D(u,1) = -3").rhs == Const(-3.0)
        assert parse("D(u,1) = +4.5").rhs == Const(4.5)

    def test_number_with_exponent(self):
        assert parse("D(u,1) = 1.5e-3").rhs == Const(0.0015)
        assert parse("D(u,1) = .5E2").rhs == Const(50.0)

    def test_variable_x(self):
        assert parse("D(u,1) = x").rhs == Var()

    def test_x_power(self):
        assert parse("D(u,1) = x^3").rhs == XPow(3)
        assert parse("D(u,1) = x^0").rhs == XPow(0)

    def test_dependent_u(self):
        eq = parse("D(u,1) = u")
        assert eq == Equation(1, U())
        assert eq.rhs == U()

    def test_derivative_factor(self):
        assert parse("D(u,2) = D(u,1)").rhs == Deriv(1)

    def test_zeroth_derivative_folds_to_u(self):
        assert parse("D(u,1) = D(u,0)").rhs == U()

    def test_pow_call(self):
        assert parse("D(u,1) = pow(u, 2)").rhs == Pow(U(), 2)

    def test_pow_zero_folds_to_one(self):
        assert parse("D(u,1) = pow(x, 0)").rhs == Const(1.0)

    def test_exp_call(self):
        assert parse("D(u,1) = exp(u)").rhs == Exp(U())

    def test_parentheses(self):
        assert parse("D(u,1) = (u + x)").rhs == Add(U(), Var())

    def test_sum_and_difference_left_associate(self):
        assert parse("D(u,1) = u + x - 1").rhs == Sub(Add(U(), Var()), Const(1.0))

    def test_product(self):
        assert parse("D(u,1) = u * x").rhs == Mul(U(), Var())

    def test_literal_folds_to_scale(self):
        assert parse("D(u,2) = -1 * exp(u)") == Equation(2, Scale(-1.0, Exp(U())))
        assert parse("D(u,2) = -1 * exp(u)").rhs == Scale(-1.0, Exp(U()))
        assert parse("D(u,1) = u * 2").rhs == Scale(2.0, U())

    def test_literal_product_folds_to_const(self):
        assert parse("D(u,1) = 2 * 3").rhs == Const(6.0)

    def test_whitespace_insignificant(self):
        assert parse("D(u,1)=u*x") == parse("  D( u , 1 )  =  u * x  ")
        assert parse("D(u,1)=u*x") == parse("D(u,1)\u00a0=\u2003u*x")
        assert parse("D(u,1)=u*x").rhs == parse("  D( u , 1 )  =  u * x  ").rhs
        assert parse("D(u,1)=u*x").rhs == parse("D(u,1)\u00a0=\u2003u*x").rhs

    def test_precedence(self):
        assert parse("D(u,1) = u + x * u").rhs == Add(U(), Mul(Var(), U()))


class TestParseErrors:
    def test_implicit_same_order(self):
        with pytest.raises(ImplicitFormError, match="implicit form"):
            parse("D(u,1) = D(u,1)")

    def test_implicit_higher_order(self):
        with pytest.raises(ImplicitFormError, match="implicit form"):
            parse("D(u,2) = u + exp(D(u,3))")

    def test_lower_order_derivative_allowed(self):
        parse("D(u,3) = D(u,2) + D(u,1)")

    def test_zero_lhs_order(self):
        with pytest.raises(EquationSyntaxError):
            parse("D(u,0) = u")

    def test_unsupported_operator(self):
        with pytest.raises(EquationSyntaxError, match="unsupported operator"):
            parse("D(u,1) = sin(u)")

    def test_dangling_operator(self):
        with pytest.raises(EquationSyntaxError):
            parse("D(u,1) = u +")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(EquationSyntaxError):
            parse("D(u,1) = (u")

    def test_trailing_input(self):
        with pytest.raises(EquationSyntaxError, match="trailing"):
            parse("D(u,1) = u u")

    def test_negative_exponent_rejected(self):
        with pytest.raises(EquationSyntaxError, match="non-negative integer"):
            parse("D(u,1) = pow(u, -2)")
        with pytest.raises(EquationSyntaxError, match="non-negative integer"):
            parse("D(u,1) = x^-1")

    def test_sign_only_attaches_to_literals(self):
        with pytest.raises(EquationSyntaxError):
            parse("D(u,1) = -u")

    def test_missing_head(self):
        with pytest.raises(EquationSyntaxError):
            parse("u = x")

    def test_wrong_dependent_name(self):
        with pytest.raises(EquationSyntaxError):
            parse("D(v,1) = u")

    def test_unexpected_character(self):
        with pytest.raises(EquationSyntaxError, match="unexpected character"):
            parse("D(u,1) = u & x")

    @pytest.mark.parametrize(
        "text,position",
        [
            ("D(u,1) = 1e999 * u", 9),
            ("D(u,1) = u - -1E400", 14),
            # A product of finite literals that folds to inf names its "*".
            ("D(u,1) = 1e200 * 1e200 * u", 15),
        ],
    )
    def test_non_finite_literal_rejected(self, text, position):
        with pytest.raises(EquationSyntaxError, match="not a finite float") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text,message,position", [
        ("D(u,1) = u & x", "unexpected character '&'", 11),
        ("u = x", "expected 'D', got 'u'", 0),
        ("D(v,1) = u", "expected 'u', got 'v'", 2),
        ("D(u,x) = u",
         "expected a non-negative integer for the left-hand derivative order, got 'x'", 4),
        ("D(u,0) = u", "left-hand derivative order must be at least 1", 4),
        ("D(u,1) u", "expected '=', got 'u'", 7),
        ("D(u,1) = u u", "unexpected trailing input 'u'", 11),
        ("D(u,1) = -u", "expected a numeric literal after the sign, got 'u'", 10),
        ("D(u,1) = 1e999*u", "numeric literal '1e999' is not a finite float", 9),
        ("D(u,1) = 1e200*1e200*u", "product of numeric literals is inf, not a finite float", 14),
        ("D(u,1) = )", "expected a factor, got ')'", 9),
        ("D(u,1) =", "expected a factor, got 'end of input'", 8),
        ("D(u,1) = (u", "expected ')', got 'end of input'", 11),
        ("D(u,1) = sin(u)", "unsupported operator 'sin'", 9),
        ("D(u,1) = x^1.5", "expected a non-negative integer for the power of x, got '1.5'", 11),
        ("D(u,2) = D(u,y)",
         "expected a non-negative integer for the derivative order, got 'y'", 13),
        ("D(u,1) = pow(u 2)", "expected ',', got '2'", 15),
        ("D(u,1) = pow(u, x)", "expected a non-negative integer for the exponent, got 'x'", 16),
        ("D(u,1) = exp u", "expected '(', got 'u'", 13),
        # int() converts at most 4300 digits.
        ("D(u," + "1" * 5000 + ") = u",
         "the left-hand derivative order has too many digits (5000)", 4),
        # The 201st "(" is at 9 + 200.
        ("D(u,1) = " + "(" * 201 + "u" + ")" * 201, "more than 200 nested parentheses", 209),
    ], ids=["character", "head", "dependent", "lhs-order", "lhs-order-zero", "equals",
            "trailing", "sign", "literal", "literal-product", "factor", "factor-end", "paren",
            "operator", "x-power", "derivative-order", "pow-comma", "pow-exponent", "exp-paren",
            "digits", "nesting"])
    def test_each_error_branch(self, text, message, position):
        with pytest.raises(EquationSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text,position",
        [
            ("D(u,1) = sin(u)", 9),
            ("D(u,1) =   u & x", 13),
            ("D(u,1) =", 8),
            ("D(u,1) = pow(u,   x)", 18),
            ("  D(u,0) = u", 6),
            ("D(u,\u0661) = u", 4),
            ("D(u,1) = \u0663*u", 9),
            ("D(u,1) = x^\u0662", 11),
        ],
        ids=["operator", "character", "end", "exponent", "lhs-order",
             "non-ascii-order", "non-ascii-literal", "non-ascii-power"],
    )
    def test_error_carries_position(self, text, position):
        with pytest.raises(EquationSyntaxError) as err:
            parse(text)
        assert err.value.position == position
        assert f"position {position}" in str(err.value)
        if position == len(text):
            assert "'end of input'" in str(err.value)


ROUND_TRIP_BATTERY = [
    "D(u,1) = u",
    "D(u,1) = 2.5",
    "D(u,1) = -3",
    "D(u,1) = 1.5e-3",
    "D(u,1) = x",
    "D(u,1) = x^3",
    "D(u,2) = D(u,1)",
    "D(u,1) = pow(u, 2)",
    "D(u,1) = exp(u)",
    "D(u,1) = (u + x)",
    "D(u,1) = u + x - 1",
    "D(u,1) = u * x",
    "D(u,2) = -1 * exp(u)",
    "D(u,1) = u * 2",
    "D(u,1) = 2 * 3",
    "D(u,1) = u + x * u",
    "D(u,3) = D(u,2) + D(u,1) - u",
    "D(u,2) = (u + x) * (u - x) + pow(exp(u), 2) - 2.5 * u * x^2",
    "D(u,1) = 2 * (3 * u)",
    "D(u,1) = pow(u + 1 * x, 3)",
    "D(u,1) = u - (x - u)",
    "D(u,1) = exp(u * (x + u))",
]


class TestPrinter:
    @pytest.mark.parametrize("text", ROUND_TRIP_BATTERY)
    def test_parse_print_parse_identity(self, text):
        eq = parse(text)
        back = parse(format_equation(eq))
        assert back == eq
        assert back.rhs == eq.rhs

    def test_canonical_form(self):
        assert format_equation(parse("D(u,2)=-1*exp(u)")) == "D(u,2) = -1.0 * exp(u)"

    def test_chains_print_in_line(self):
        # A literal after the first factor scales the chain so far, and
        # prints where it stood.
        text = "D(u,1) = 2 * u * x * (u - x) * -3 * u + u - x"
        assert format_equation(parse(text)) == (
            "D(u,1) = 2.0 * u * x * (u - x) * -3.0 * u + u - x")

    @pytest.mark.parametrize("op", ["+", "-", "*"], ids=["sum", "difference", "product"])
    def test_chain_of_3000_operands_round_trips(self, op):
        eq = parse("D(u,1) = " + f" {op} ".join(["u", "2.5", "x"] * 1000))
        back = parse(format_equation(eq))
        assert back == eq
        assert _same_tree(back.rhs, eq.rhs)

    # Each wraps one node around its argument, and prints as prefix + inner + suffix.
    NESTS = {
        "exp": (Exp, "exp(", ")"),
        "square": (lambda e: Pow(e, 2), "pow(", ", 2)"),
        "scaled-exp": (lambda e: Scale(2.0, Exp(e)), "2.0 * exp(", ")"),
        "grouped-sum": (lambda e: Mul(U(), Add(U(), e)), "u * (u + ", ")"),
    }

    @pytest.mark.parametrize("kind", NESTS)
    def test_hand_built_nest_of_1500_prints(self, kind):
        # Built by hand: the parser stops at 200 nested parentheses.
        wrap, prefix, suffix = self.NESTS[kind]
        e = U()
        for _ in range(1500):
            e = wrap(e)
        text = format_equation(Equation(1, e))
        assert text == "D(u,1) = " + prefix * 1500 + "u" + suffix * 1500

    @pytest.mark.parametrize("depth", [1, 2, 50, 200])
    @pytest.mark.parametrize("kind", NESTS)
    def test_nest_up_to_200_deep_round_trips(self, kind, depth):
        wrap = self.NESTS[kind][0]
        e = U()
        for _ in range(depth):
            e = wrap(e)
        back = parse(format_equation(Equation(1, e)))
        assert back.lhs_order == 1 and _same_tree(back.rhs, e)

    @pytest.mark.parametrize("tree", [
        "garbage", Add(U(), "x + 1"), Exp("u"), Pow("u", 2), Mul(U(), ("x",)),
        Scale(2.0, Mul(U(), "x")), 5, None,
    ], ids=["str", "str-in-sum", "str-in-exp", "str-in-pow", "tuple-in-product",
            "str-in-scaled-chain", "int", "none"])
    def test_a_non_node_anywhere_raises_type_error(self, tree):
        # Text in a tree is not printed as it stands: a str is not a node.
        with pytest.raises(TypeError, match="not an expression node"):
            lang.format_expr(tree)


def _same_tree(a, b) -> bool:
    """Whether two ASTs are equal, floats by their bits, walked with a stack
    (the nodes' own == recurses once per level)."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, _Record):
            todo += zip(a._values(), b._values())
        elif a.hex() != b.hex() if type(a) is float else a != b:
            return False
    return True


class TestLower:
    def test_causality_guard_on_hand_built_ast(self):
        with pytest.raises(ImplicitFormError):
            lower(Equation(1, Deriv(1)), 10)
        with pytest.raises(ImplicitFormError):
            lower(Equation(3, Deriv(3)), 10)
        assert lower(Equation(3, Deriv(2)), 10).order == 10

    def test_hand_built_validation(self):
        with pytest.raises(ValueError):
            lower(Equation(1, Pow(U(), 0)), 10)
        with pytest.raises(ValueError):
            lower(Equation(1, Deriv(0)), 10)
        with pytest.raises(ValueError):
            lower(Equation(0, U()), 10)

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            lower(parse("D(u,2) = u"), 0)


class TestRunBasics:
    def test_exponential_solution(self):
        plan = lower(parse("D(u,1) = u"), 20)
        sol = run(plan, [1.0])
        assert max(abs(sol[k] * math.factorial(k) - 1.0) for k in range(21)) <= 1e-12

    def test_geometric_solution(self):
        sol = run(lower(parse("D(u,1) = pow(u,2)"), 15), [1.0])
        assert max(abs(c - 1.0) for c in sol) <= 1e-12

    def test_zero_initial_data(self):
        sol = run(lower(parse("D(u,1) = u"), 5), [0.0])
        assert sol == Series([0.0] * 6)

    def test_first_few_coefficients_of_scaled_exp_equation(self):
        sol = run(lower(parse("D(u,2) = -2 * exp(u)"), 3), [0.0, 3.0])
        assert sol[2] == -1.0
        assert sol[3] == -1.0

    def test_derivative_on_rhs(self):
        # u'' = u' with u(0)=0, u'(0)=1 solves to e^x - 1.
        sol = run(lower(parse("D(u,2) = D(u,1)"), 15), [0.0, 1.0])
        assert sol[0] == 0.0
        assert max(abs(sol[k] * math.factorial(k) - 1.0) for k in range(1, 16)) <= 1e-12

    def test_x_forcing(self):
        sol = run(lower(parse("D(u,1) = x"), 4), [0.0])
        assert sol == Series([0.0, 0.0, 0.5, 0.0, 0.0])
        sol = run(lower(parse("D(u,1) = x^2"), 4), [0.0])
        assert abs(sol[3] - 1.0 / 3.0) <= 1e-16
        assert sol[1] == sol[2] == sol[4] == 0.0

    def test_product_equation(self):
        # u' = x*u with u(0)=1 solves to exp(x^2/2).
        sol = run(lower(parse("D(u,1) = x * u"), 8), [1.0])
        want = [1.0, 0.0, 0.5, 0.0, 0.125, 0.0, 1.0 / 48.0, 0.0, 1.0 / 384.0]
        assert max(abs(g - w) for g, w in zip(sol, want)) <= 1e-15

    def test_initial_data_validation(self):
        plan = lower(parse("D(u,2) = u"), 10)
        with pytest.raises(ValueError):
            run(plan, [1.0])
        with pytest.raises(ValueError):
            run(plan, [1.0, float("inf")])

    def test_deterministic_bitwise(self):
        plan = lower(parse("D(u,2) = -1 * exp(u)"), 25)
        first = run(plan, [0.0, 0.5])
        second = run(plan, [0.0, 0.5])
        assert first.coeffs == second.coeffs
        fresh = run(lower(parse("D(u,2) = -1 * exp(u)"), 25), [0.0, 0.5])
        assert first.coeffs == fresh.coeffs

    def test_pow_one_is_its_operand_bitwise(self):
        # pow_int(a, 1) returns a, so a pow node of exponent one is its operand.
        for operand in ("u", "x * u"):
            got = run(lower(parse(f"D(u,1) = pow({operand}, 1)"), 20), [0.7])
            want = run(lower(parse(f"D(u,1) = {operand}"), 20), [0.7])
            assert list(map(float.hex, got)) == list(map(float.hex, want))
            # pow(e, 1) is lowered to e's own slot.
            assert "pow" not in _kinds(lower(parse(f"D(u,1) = pow({operand}, 1)"), 20))
        assert Equation(1, Pow(U(), 1)) == Equation(1, U())


class TestPowValuationAtRuntime:
    def test_tangent_series(self):
        # u' = 1 + u^2 with u(0)=0: pow's operand has U(0) = 0.
        sol = run(lower(parse("D(u,1) = 1 + pow(u,2)"), 9), [0.0])
        want = [0.0, 1.0, 0.0, 1 / 3, 0.0, 2 / 15, 0.0, 17 / 315, 0.0, 62 / 2835]
        assert max(abs(g - w) for g, w in zip(sol, want)) <= 1e-15

    def test_identically_zero_solution(self):
        # u' = u^2, u(0)=0: u stays 0.
        sol = run(lower(parse("D(u,1) = pow(u,2)"), 10), [0.0])
        assert sol == Series([0.0] * 11)

    def test_pow_of_composite_with_nonzero_constant(self):
        # u' = (1+u)^2, u(0)=0 solves to 1/(1-x) - 1.
        sol = run(lower(parse("D(u,1) = pow(1 + u, 2)"), 12), [0.0])
        assert sol[0] == 0.0
        assert max(abs(c - 1.0) for c in sol.coeffs[1:]) <= 1e-12


def _tan_coeffs(order):
    # tan(x + atan(1/2)) solves u' = 1 + u^2 from u(0) = 1/2: exact
    # rational coefficients, all positive.
    t = [Fraction(1, 2)]
    for k in range(order):
        t.append((sum(t[j] * t[k - j] for j in range(k + 1)) + (k == 0)) / (k + 1))
    return t


class TestBinaryPow:
    @pytest.mark.parametrize("order", (40, 60, 80))
    def test_tangent_with_a_zero_in_its_disk(self, order):
        # u has a zero at -0.464 inside its radius 1.107. Miller's
        # recurrence was off by 4.4e-7 (N = 40), 3.0 (60) and 3.4e7 (80)
        # relative; the square stays within 1.4e-15.
        sol = run(lower(parse("D(u,1) = 1 + pow(u,2)"), order), [0.5])
        want = _tan_coeffs(order)
        assert max(abs(Fraction(g) - w) / w for g, w in zip(sol, want)) <= 1e-13

    @pytest.mark.parametrize("m", range(2, 10))
    def test_overflow_order_is_that_of_the_naive_fold(self, m):
        # u' = u^m grows like ((m-1) u0^(m-1))^k = 1e40^k. The fold of
        # products with a copy of u (not u's own slot, so no square) and
        # pow_naive of the solution so far must overflow where pow does.
        u0 = (1e40 / (m - 1)) ** (1 / (m - 1))
        fold = U()
        for _ in range(m - 1):
            fold = Mul(fold, Scale(1.0, U()))
        orders = []
        for rhs in (Pow(U(), m), fold):
            with pytest.raises(NonFiniteCoefficientError) as err:
                run(lower(Equation(1, rhs), 20), [u0])
            orders.append(err.value.order)
        k = orders[0]
        assert orders == [k, k] and k > 1
        with pytest.raises(NonFiniteCoefficientError) as err:
            pow_naive(run(lower(Equation(1, Pow(U(), m)), k - 1), [u0]), m)
        assert err.value.order == k - 1


class TestNestedNonlinear:
    """No closed forms here; check the ODE residual with the naive oracles."""

    @pytest.mark.parametrize(
        "text,initial,build_rhs",
        [
            (
                "D(u,1) = exp(pow(u,2))",
                [0.1],
                lambda sol, n: exp_naive(pow_naive(sol, 2)[0])[0],
            ),
            (
                "D(u,2) = exp(x * u)",
                [0.5, -0.2],
                lambda sol, n: exp_naive(mul(monomial(1, n), sol))[0],
            ),
            (
                "D(u,1) = 1 + pow(u,3)",
                [0.0],
                lambda sol, n: add(monomial(0, n), pow_naive(sol, 3)[0]),
            ),
            # pow of a composite operand with a zero constant coefficient.
            (
                "D(u,1) = pow(x * u, 2)",
                [1.0],
                lambda sol, n: pow_naive(mul(monomial(1, n), sol), 2)[0],
            ),
            (
                "D(u,1) = pow(u + 1 * x, 3)",
                [0.0],
                lambda sol, n: pow_naive(add(sol, monomial(1, n)), 3)[0],
            ),
        ],
    )
    def test_solution_satisfies_equation(self, text, initial, build_rhs):
        n = 12
        eq = parse(text)
        sol = run(lower(eq, n), initial)
        lhs = derivative_transform(sol, eq.lhs_order)
        rhs = build_rhs(sol, n)
        gap = max(
            abs(x - y) / max(abs(y), 1.0)
            for x, y in zip(lhs.coeffs, rhs.coeffs)
        )
        assert gap <= 1e-9


def _hex(series):
    return [c.hex() for c in series]


def _kinds(plan):
    return [kind for kind, _, _ in program(plan.equation)]


def _cauchy_products_of_x(plan):
    # The "mul" and "sq" slots that read an x^p slot.
    slots = program(plan.equation)
    return [(kind, args) for kind, _, args in slots
            if kind in ("mul", "sq") and any(slots[i][0] == "xpow" for i in args)]


class TestSharedSlots:
    def test_equal_subtrees_share_one_slot(self):
        plan = lower(Equation(1, Add(Exp(U()), Mul(U(), Exp(U())))), 5)
        assert _kinds(plan) == ["u", "exp", "mul", "add"]

    @pytest.mark.parametrize(
        "rhs",
        [
            Add(Scale(-0.0, U()), Scale(0.0, U())),
            Add(Const(-0.0), Const(0.0)),
        ],
        ids=["scale", "const"],
    )
    def test_signed_zeros_get_separate_slots(self, rhs):
        # The nodes compare -0.0 equal to 0.0; the slots must not.
        assert rhs.left == rhs.right
        slots = program(lower(Equation(1, rhs), 3).equation)
        kind, _, (left, right) = slots[-1]
        assert kind == "add" and left != right
        assert [slots[i][1].hex() for i in (left, right)] == ["-0x0.0p+0", "0x0.0p+0"]

    def test_signed_zero_literals_make_unequal_equations_and_plans(self):
        # The two run to different bits from (1.0,): U(1) is -0.0 and 0.0.
        texts = ("D(u,1) = -0.0*u", "D(u,1) = 0.0*u")
        assert len({parse(text) for text in texts}) == 2
        assert len({lower(parse(text), 2) for text in texts}) == 2
        assert parse(texts[0]) != parse(texts[1])
        assert lower(parse(texts[0]), 2) != lower(parse(texts[1]), 2)

    def test_equal_programs_make_equal_equations_and_plans(self):
        same = ("D(u,1) = 2*u*x", "D(u,1)=2.0*u*x^1", "D(u,1) = pow(2*u*x, 1)")
        assert len({parse(text) for text in same}) == 1
        assert len({lower(parse(text), 4) for text in same}) == 1
        assert lower(parse(same[0]), 4) != lower(parse(same[0]), 5)
        assert parse("D(u,2) = 2*u*x") != parse(same[0])
        assert parse("D(u,1) = x*2*u") != parse(same[0])

    def test_pow_chains_share_one_square(self):
        # pow(u,3) is u's square times u, and reuses pow(u,2)'s square.
        plan = lower(parse("D(u,1) = pow(u,2) + pow(u,3)"), 5)
        assert _kinds(plan) == ["u", "sq", "mul", "add"]
        assert "pow" in _kinds(lower(parse("D(u,1) = pow(u,9)"), 5))

    def test_product_of_one_slot_with_itself_is_its_square(self):
        assert parse("D(u,1) = 1 + u*u") == parse("D(u,1) = 1 + pow(u,2)")
        assert _kinds(lower(parse("D(u,1) = exp(u)*exp(u)"), 5)) == ["u", "exp", "sq"]

    def test_repeated_exp_steps_once_per_order(self, monkeypatch):
        calls = []
        exp_step = powers.exp_step

        def counted(*args, **kwargs):
            calls.append(args[2])
            return exp_step(*args, **kwargs)

        monkeypatch.setattr(powers, "exp_step", counted)
        lang._longest_run.cache_clear()  # so the runs step the executor
        n = 30
        shared = run(lower(parse("D(u,2) = -1*u*exp(u) + exp(u)"), n), [0.1, 0.2])
        assert calls == list(range(1, n - 1))
        calls.clear()
        # Scale(1.0, U()) is not u's slot, but equals u bit for bit.
        apart = run(lower(parse("D(u,2) = -1*u*exp(u) + exp(1*u)"), n), [0.1, 0.2])
        assert len(calls) == 2 * (n - 2)
        assert _hex(shared) == _hex(apart)


def _no_monomial(x):
    # The coefficients of x^p in an Add node: equal values, no "xpow" slot
    # under the product, so it is a "mul" slot, the Cauchy product.
    return Add(x, Const(0.0))


class TestShiftProduct:
    """A product with x^p, p >= 1, is a shift, bitwise equal to the Cauchy
    product; a product with x^0 is the Cauchy product itself."""

    @pytest.mark.parametrize(
        "m,initial,build",
        [
            (2, [1.0, 0.0], lambda x: Mul(x, U())),
            (2, [0.3, -0.7], lambda x: Mul(U(), x)),
            (2, [0.1, 0.2], lambda x: Mul(x, Exp(U()))),
            (1, [0.6], lambda x: Sub(Pow(U(), 3), Mul(Pow(U(), 2), x))),
            (2, [0.5, 0.25], lambda x: Mul(x, Mul(x, U()))),
            (2, [-0.0, 0.0], lambda x: Mul(x, U())),
            (2, [0.0, 1.0], lambda x: Add(Mul(x, Scale(-0.0, U())), U())),
        ],
        ids=["x-left", "x-right", "x-exp", "pow-minus-x", "nested", "neg-zero", "neg-zero-scale"],
    )
    @pytest.mark.parametrize("x", [Var(), XPow(1), XPow(3), XPow(0), XPow(40)],
                             ids=["x", "x^1", "x^3", "x^0", "x^40"])
    def test_matches_cauchy_product_bitwise(self, m, initial, build, x):
        n = 30
        shifted = lower(Equation(m, build(x)), n)
        summed = lower(Equation(m, build(_no_monomial(x))), n)
        if x == XPow(0):
            assert "shift" not in _kinds(shifted) and _cauchy_products_of_x(shifted)
        else:
            assert "shift" in _kinds(shifted) and not _cauchy_products_of_x(shifted)
        assert "shift" not in _kinds(summed)
        assert _hex(run(shifted, initial)) == _hex(run(summed, initial))

    def test_negative_zero_operand_from_parse(self):
        got = run(lower(parse("D(u,2) = x*u"), 6), [-0.0, 0.0])
        want = run(lower(Equation(2, Mul(_no_monomial(Var()), U())), 6), [-0.0, 0.0])
        assert _hex(got) == _hex(want)
        assert got[3].hex() == "0x0.0p+0"

    @pytest.mark.parametrize(
        "m,initial,x,build,order",
        [
            # E(0) = inf and 0 * inf is NaN, so the Cauchy sum is not finite
            # at k = 0 already: the shift must be NaN there, not at k = 1.
            (1, [1.0], Var(), lambda x: Mul(x, Scale(1e308, Scale(1e308, U()))), 1),
            (1, [1.0], Var(), lambda x: Mul(Scale(1e308, Scale(1e308, U())), x), 1),
            # E = 1e600 * (u - 1) is 0 at k = 0 and inf from k = 1: the sum
            # is NaN at k = 1 (order 3); a shift would see inf only at k = 2.
            (2, [1.0, 1.0], Var(),
             lambda x: Mul(x, Scale(1e300, Scale(1e300, Sub(U(), Const(1.0))))), 3),
            # Miller's power of x * exp(u) overflows at W(9) = (e^700)^9.
            (1, [700.0], Var(), lambda x: Pow(Mul(x, Exp(U())), 9), 10),
            # E = 1e600 * (u - 1) is inf at k = 1, where x * E is NaN; Miller's
            # leading zero keeps the NaN out of the power until order 10, and a
            # shift that raised at k = 1 would name order 2.
            (1, [1.0], Var(),
             lambda x: Add(Pow(Mul(x, Scale(1e300, Scale(1e300, Sub(U(), Const(1.0))))), 9),
                           Const(1.0)), 10),
            # x^0 * E keeps E(0) = -inf where a shift would hold NaN, and
            # exp(-inf) is 0.0, so the run fails at order 2, not 1.
            (1, [1.0], XPow(0), lambda x: Exp(Mul(x, Scale(-1e300, Scale(1e300, U())))), 2),
        ],
        ids=["x-left", "x-right", "after-finite-steps", "miller", "hidden-by-miller", "x^0"],
    )
    def test_overflow_names_the_order_of_the_product(self, m, initial, x, build, order):
        for factor in (x, _no_monomial(x)):
            with pytest.raises(NonFiniteCoefficientError) as err:
                run(lower(Equation(m, build(factor)), 10), initial)
            assert err.value.order == order


_LITERALS = (1e300, -1e300, 1.0, -1.0, 0.1, -0.3, -0.0)


def _random_rhs(rng, m, depth):
    """A random right-hand side for D(u,m): products with x^p (p = 0..5) on
    either side, alone or times their mirror image, pow up to 12, exp."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([U(), Var(), XPow(rng.randrange(6)), Const(rng.choice(_LITERALS)),
                           Deriv(1) if m == 2 else U()])
    e = _random_rhs(rng, m, depth - 1)
    op = rng.randrange(8)
    if op < 2:
        x = rng.choice([Var(), XPow(rng.randrange(6))])
        return (Mul(x, e), Mul(e, x), Mul(Mul(x, e), Mul(e, x)))[rng.randrange(3)]
    if op == 2:
        return Mul(e, _random_rhs(rng, m, depth - 1))
    if op == 3:
        return (Add if rng.random() < 0.5 else Sub)(e, _random_rhs(rng, m, depth - 1))
    if op == 4:
        return Scale(rng.choice(_LITERALS), e)
    if op == 5:
        return Pow(e, rng.randint(1, 12))
    return Exp(e) if op == 6 else e


def _without_monomials(e):
    # Every x^p node as x^p + 0.0, so each of its products is a Cauchy sum.
    if isinstance(e, (Var, XPow)):
        return _no_monomial(e)
    return type(e)(*(_without_monomials(v) if isinstance(v, _Record) else v
                     for v in e._values()))


def _outcome(equation, initial, n):
    try:
        return _hex(run(lower(equation, n), initial))
    except NonFiniteCoefficientError as err:
        return err.order


class TestShiftProperty:
    def test_random_equations_match_their_cauchy_copies(self):
        # x*u and u*x keep apart: as one slot, (x*u)*(u*x) would be a square,
        # which is not bitwise the product.
        rng = random.Random(1)
        for _ in range(300):
            m = rng.randint(1, 2)
            rhs = _random_rhs(rng, m, 4)
            initial = [rng.choice((0.0, -0.0, 1.0, 700.0, 1e10)) for _ in range(m)]
            n = rng.choice((5, 20, 60))
            got = _outcome(Equation(m, rhs), initial, n)
            want = _outcome(Equation(m, _without_monomials(rhs)), initial, n)
            assert got == want, (format_equation(Equation(m, rhs)), initial, n)


#: Characters a mutation inserts or writes over: the grammar's own, a space
#: and a tab, and characters it rejects.
_MUTATION_CHARS = "Dux^()+-*=,.eE0123 \t&_s\u00e9\u0661"


def _mutated(rng, text):
    """``text`` with one random character deleted, inserted or replaced."""
    i, c = rng.randrange(len(text)), rng.choice(_MUTATION_CHARS)
    return rng.choice((text[:i] + text[i + 1:], text[:i] + c + text[i:],
                       text[:i] + c + text[i + 1:]))


class TestFrontEndContract:
    def test_mutated_equations_parse_or_raise_a_positioned_error(self):
        rng = random.Random(5)
        for _ in range(300):
            m = rng.randint(1, 2)
            text = format_equation(Equation(m, _random_rhs(rng, m, 4)))
            try:
                parse(text)
            except EquationSyntaxError as err:
                # A printed Mul of two literals folds when parsed, and
                # 1e300 * 1e300 folds to inf, which the grammar rejects.
                assert "product of numeric literals is" in str(err), text
            for _ in range(4):
                mutant = _mutated(rng, text)
                try:
                    parse(mutant)
                except EquationError as err:
                    assert isinstance(err, ImplicitFormError) or (
                        0 <= err.position <= len(mutant)), (mutant, err)


class TestNonFinite:
    def test_exp_overflow_names_order(self):
        plan = lower(parse("D(u,1) = exp(u)"), 5)
        with pytest.raises(NonFiniteCoefficientError, match="order 1") as err:
            run(plan, [710.0])
        assert err.value.order == 1

    def test_product_overflow_names_order(self):
        plan = lower(parse("D(u,1) = pow(u,2)"), 5)
        with pytest.raises(NonFiniteCoefficientError) as err:
            run(plan, [1e200])
        assert err.value.order == 1

    def test_divisor_without_a_float_is_divided_exactly(self):
        # U(171) = U(0) / 171!, and 171! has no float: the quotient is the
        # correctly rounded subnormal 8.06e-310.
        sol = run(lower(parse("D(u,171) = u"), 171), [1.0] * 171)
        assert sol[171] == float(Fraction(1, math.factorial(171))) > 0.0
        sol = run(lower(parse("D(u,171) = -0.0 * u"), 171), [1.0] * 171)
        assert sol[171].hex() == (-0.0).hex()

    def test_overflow_over_a_divisor_without_a_float_names_order(self):
        plan = lower(parse("D(u,171) = 1e300 * pow(u,2)"), 172)
        with pytest.raises(NonFiniteCoefficientError) as err:
            run(plan, [1e10] * 171)
        assert err.value.order == 171

    def test_factor_without_a_float_is_multiplied_exactly(self):
        # U(172) = 171! U(171) / 172!: 171! has no float, yet with U(k) =
        # 1/k! the product is about 1, and U(172) about 1/172! = 4.7e-312.
        initial = [1 / math.factorial(k) for k in range(172)]
        sol = run(lower(parse("D(u,172) = D(u,171)"), 175), initial)
        root = float(math.factorial(171) * Fraction(initial[171]))
        assert sol[172] == float(Fraction(root) / math.factorial(172))
        assert sol[172] == pytest.approx(1 / Fraction(math.factorial(172)), rel=1e-9)
        # A product that has no float either still overflows at its order.
        with pytest.raises(NonFiniteCoefficientError) as err:
            run(lower(parse("D(u,172) = D(u,171)"), 175), [1.0] * 172)
        assert err.value.order == 172


class TestBratuAgreement:
    def test_dsl_matches_exp_path_bitwise(self):
        sol = run(lower(parse("D(u,2) = -1 * exp(u)"), 20), [0.0, 0.5])
        assert sol.coeffs == run(bratu_plan(1.0, 20), (0.0, 0.5)).coeffs

    def test_dsl_matches_exp_path_bitwise_other_lambda(self):
        sol = run(lower(parse("D(u,2) = -2 * exp(u)"), 18), [0.0, 3.0])
        assert sol.coeffs == run(bratu_plan(2.0, 18), (0.0, 3.0)).coeffs

    def test_dsl_matches_simplified_recurrence(self):
        sol = run(lower(parse("D(u,2) = -1 * exp(u)"), 10), [0.0, 0.7])
        assert relgap(sol, bratu_coeffs(1.0, 0.7, 10)) <= 1e-12


def _executor(plan):
    return lang._executor(plan.equation._shape)


class TestExecutor:
    """One compiled executor per program shape, with the literals passed in."""

    def test_bratu_plans_share_one_executor(self):
        one, two = bratu_plan(1.0, 20), bratu_plan(2.5, 30)
        assert one.equation != two.equation
        assert one.equation._shape == two.equation._shape
        assert _executor(one) is _executor(two)
        hits = lang._executor.cache_info().hits
        lang._longest_run.cache_clear()  # so the run looks up its executor
        run(bratu_plan(3.0, 10), (0.0, 1.0))
        assert lang._executor.cache_info().hits == hits + 1

    def test_signed_zero_literals_keep_their_bits(self):
        minus, plus = (lower(parse(f"D(u,1) = {c}*u"), 3) for c in ("-0.0", "0.0"))
        assert _executor(minus) is _executor(plus)
        # U(k) = (+-0.0)^k: the signs alternate for -0.0 only.
        assert _hex(run(minus, (1.0,)))[1:] == ["-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"]
        assert _hex(run(plus, (1.0,)))[1:] == ["0x0.0p+0"] * 3

    @pytest.mark.parametrize("text", [
        "D(u,2) = -1.5*exp(u) + 0.1 - 1e-300*x^3*D(u,1)",
        "D(u,1) = -0.0 + pow(2.5*u, 9) + 7*pow(u, 3)",
    ])
    def test_no_float_in_the_source(self, text):
        source = lang._source(parse(text)._shape)
        numbers = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                   if tok.type == tokenize.NUMBER]
        assert numbers and all(number.isdigit() for number in numbers)

    def test_every_global_is_read_by_some_executor(self):
        names = {tok.string for text, _ in ORACLE_CASES.values()
                 for tok in tokenize.generate_tokens(
                     io.StringIO(lang._source(parse(text)._shape)).readline)
                 if tok.type == tokenize.NAME}
        assert not set(lang._EXECUTOR_GLOBALS) - names

    def test_shift_is_one_line_without_state(self):
        source = lang._source(parse("D(u,2) = x*u")._shape)
        assert "next(" not in source and "[]" not in source

    def test_integers_beyond_the_str_digit_limit(self):
        # str() converts at most 4300 digits; 10**5000 is written in hex.
        big = 10**5000
        sol = run(lower(Equation(1, Mul(XPow(big), U())), 3), [1.0])
        assert _hex(sol) == _hex([1.0, 0.0, 0.0, 0.0])
        sol = run(lower(Equation(1, Add(XPow(big), Pow(U(), big))), 3), [0.0])
        assert _hex(sol) == _hex([0.0] * 4)
        # Derivative and equation orders: the source compiles.
        shape = Equation(big + 1, Deriv(big))._shape
        compile(lang._source(shape), "<test>", "exec")


class TestReentrant:
    """The executor keeps no state between calls, nor within one."""

    TEXT = "D(u,2) = -1*u*exp(u) + exp(u) + 0.001*pow(u,9) - x*u"
    INITIAL = [(0.1 * i, 0.2) for i in range(8)]

    def _want(self, plan):
        # Cleared after, so the runs under test step the executor.
        want = [_hex(run(plan, ic)) for ic in self.INITIAL]
        lang._longest_run.cache_clear()
        return want

    def test_four_threads_match_sequential_runs(self):
        plan = lower(parse(self.TEXT), 200)
        want = self._want(plan)
        barrier = threading.Barrier(4, timeout=30)

        def job(t):
            barrier.wait()
            return [_hex(run(plan, self.INITIAL[(t + j) % 8])) for j in range(8)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads within runs, not only between
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(job, range(4)))
        finally:
            sys.setswitchinterval(interval)
        for t in range(4):
            assert got[t] == [want[(t + j) % 8] for j in range(8)]

    def test_interleaved_runs_match_sequential_runs(self, monkeypatch):
        # A run of the plan is started from inside another one's exp step,
        # at every order of the outer run.
        plan = lower(parse(self.TEXT), 60)
        want = self._want(plan)
        exp_step = powers.exp_step
        inner, running = [], []

        def nested(*args, **kwargs):
            if not running:  # inside the outer run, not an inner one
                running.append(True)
                lang._longest_run.cache_clear()  # so the inner run steps too
                i = len(inner) % 8
                inner.append(_hex(run(plan, self.INITIAL[i])) == want[i])
                running.pop()
            return exp_step(*args, **kwargs)

        monkeypatch.setattr(powers, "exp_step", nested)
        assert _hex(run(plan, self.INITIAL[3])) == want[3]
        assert len(inner) == 58 and all(inner)  # exp steps k = 1..58


# (equation, initial coefficients): every slot kind, shared subtrees, pow
# above BINARY_POW_MAX with a valuation, x^p shifts, overflow, and a
# divisor perm(k + m, m) or a factor perm(k + j, j) without a float.
ORACLE_CASES = {
    "u": ("D(u,1) = u", (1.0,)),
    "const": ("D(u,1) = 2.5", (0.5,)),
    "signed-zeros": ("D(u,2) = -0.0 + 0.0*u - -0.0*D(u,1)", (-0.0, 0.0)),
    "xpow-sub": ("D(u,1) = x^3 - x + x^0", (0.0,)),
    "deriv-scale-mul": ("D(u,3) = -0.5*u*D(u,2) + D(u,1)", (0.0, 0.0, 1.0)),
    "shared-exp": ("D(u,2) = -1*u*exp(u) + exp(u)", (0.1, 0.2)),
    "shared-square": ("D(u,1) = 0.1*pow(u,2) + 0.01*pow(u,3)", (0.5,)),
    "sq": ("D(u,1) = exp(u)*exp(u)", (-1.0,)),
    "chain-7": ("D(u,1) = 0.01*pow(u - 1, 7)", (0.0,)),
    "miller": ("D(u,1) = -1*pow(u, 9)", (0.5,)),
    "miller-valuation": ("D(u,1) = pow(x*u, 9) + 1", (0.0,)),
    "miller-valuation-u": ("D(u,2) = pow(u, 10)", (0.0, 0.5)),
    "shifts": ("D(u,1) = pow(u,3) - x*u + x^2*exp(u)", (0.25,)),
    "shift-of-composite": ("D(u,2) = x^3*(u + D(u,1)) - x*u", (1.0, -1.0)),
    "exp-of-x": ("D(u,1) = exp(x) - 2*exp(x^2)*u", (1.0,)),
    "overflow-exp": ("D(u,1) = exp(u)", (710.0,)),
    "overflow-mid-run": ("D(u,1) = pow(u,2)", (1e10,)),
    "overflow-shift": ("D(u,2) = x*(1e300*pow(u,2))", (1e10, 1e10)),
    "big-divisor": ("D(u,171) = u", (1.0,) * 171),
    "big-factor": ("D(u,172) = D(u,171)", tuple(1 / math.factorial(k) for k in range(172))),
    # Factors and divisors above 2^53 that still have a float, which rounds them.
    "mid-factor": ("D(u,25) = D(u,20)", tuple(1 / math.factorial(k) for k in range(25))),
    "mid-divisor": ("D(u,23) = u", tuple(1 / math.factorial(k) for k in range(23))),
}


class TestOracle:
    """U(k+m) is R(k) / perm(k+m, m), R built by the whole-series operators."""

    @pytest.mark.parametrize("case,n", [
        pytest.param(case, n, id=f"{case}-{n}")
        for case, (_, initial) in ORACLE_CASES.items()
        for n in sorted({len(initial) - 1, 10, 80, 400}) if n >= len(initial) - 1
    ])
    def test_run_matches_whole_series_operators(self, case, n):
        text, initial = ORACLE_CASES[case]
        eq = parse(text)
        m = eq.lhs_order
        try:
            sol = run(lower(eq, n), initial)
        except NonFiniteCoefficientError as err:
            # The run to the order before is the same steps; R(K-m) reads
            # U(0..K-1) only, so a padded U(K) is never read.
            sol = run(lower(eq, err.order - 1), initial)
            padded = Series(sol.coeffs + (0.0,))
            k = err.order - m
            try:
                root = slot_series(eq, padded)[-1]
            except NonFiniteCoefficientError as slot_err:
                assert slot_err.order == k
            else:
                assert not math.isfinite(divide(root[k], math.perm(k + m, m)))
        assert _hex(sol[:m]) == _hex(initial)
        if sol.order >= m:
            root = slot_series(eq, sol)[-1]
            want = [divide(root[k], math.perm(k + m, m)) for k in range(len(root))]
            assert _hex(sol[m:]) == _hex(want)


def _counted_outcome(equation, initial, n):
    """The bits and multiply count of a run of ``equation``, or the order
    it overflows at."""
    u, count = list(initial), OpCount()
    try:
        lang._executor(equation._shape)(u, n, equation._literals, count)
    except NonFiniteCoefficientError as err:
        return err.order
    return _hex(u), count.multiplies


class TestParseCache:
    """parse keeps the Equations of its last 128 texts; errors are not kept."""

    def test_a_repeated_text_returns_the_same_equation(self):
        text = "D(u,2) = -1*u*exp(u) + exp(u) + 0.5*pow(u, 9)"
        cached = parse(text)
        assert parse(text) is cached
        fresh = lang._parse_text.__wrapped__(text)
        assert fresh is not cached
        assert fresh == cached and hash(fresh) == hash(cached)
        assert _same_tree(fresh.rhs, cached.rhs)

    def test_the_command_line_parses_through_the_cache(self):
        assert cli.parse is lang.parse
        assert lang._parse_text.cache_info().maxsize == 128

    @pytest.mark.parametrize("text,error,position", [
        ("D(u,1) = sin(u)", EquationSyntaxError, 9),
        ("D(u,1) = (u", EquationSyntaxError, 11),
        ("D(u,1) = 1e200*1e200*u", EquationSyntaxError, 14),
        ("D(u,2) = D(u,3)", ImplicitFormError, None),
        (None, InvalidArgumentError, None),
        (b"D(u,1) = u", InvalidArgumentError, None),
        (["D(u,1) = u"], InvalidArgumentError, None),
        ({}, InvalidArgumentError, None),
    ], ids=["operator", "paren", "literal-product", "implicit", "none", "bytes", "list",
            "dict"])
    def test_a_bad_text_raises_on_every_call(self, text, error, position):
        # A text that is not a str is refused before the cache is consulted.
        before = lang._parse_text.cache_info()
        raised = []
        for _ in range(3):
            with pytest.raises(error) as err:
                parse(text)
            raised.append(err.value)
        after = lang._parse_text.cache_info()
        misses = 3 if isinstance(text, str) else 0
        assert (after.hits, after.misses) == (before.hits, before.misses + misses)
        assert raised[0] is not raised[1] is not raised[2]
        assert len({str(e) for e in raised}) == 1
        assert [getattr(e, "position", None) for e in raised] == [position] * 3

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_runs_from_a_cached_equation_are_bitwise_those_of_a_fresh_parse(self, case):
        text, initial = ORACLE_CASES[case]
        parse(text)
        cached, fresh = parse(text), lang._parse_text.__wrapped__(text)
        assert cached is parse(text) and fresh is not cached
        for n in sorted({len(initial) - 1, 10, 80}):
            if n >= len(initial) - 1:
                assert _counted_outcome(cached, initial, n) == _counted_outcome(fresh, initial, n)


def _bench_module(name):
    """A module of the benchmark, imported from bench/ as its own files import it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        return importlib.import_module(name)


ARRANGEMENTS = {
    "ascending": lambda runs: sorted(runs, key=lambda r: r[2]),
    "descending": lambda runs: sorted(runs, key=lambda r: -r[2]),
    "shuffled": lambda runs: random.Random(30).sample(runs, len(runs)),
}


class TestRunCache:
    """run keeps the longest run of each (equation, initial bits) and
    returns a shorter one as its prefix, bitwise the run it would step."""

    @staticmethod
    def _check(runs, arrangement):
        # Each (equation, initial, order) against its run with the cache cleared.
        checked = []
        for equation, initial, n in runs:
            lang._longest_run.cache_clear()
            checked.append((equation, initial, n, _outcome(equation, initial, n)))
        lang._longest_run.cache_clear()
        for equation, initial, n, want in ARRANGEMENTS[arrangement](checked):
            assert _outcome(equation, initial, n) == want, (equation, initial, n)

    @pytest.mark.parametrize("arrangement", ARRANGEMENTS)
    def test_solve_pool_runs_are_bitwise_fresh_runs(self, arrangement):
        pool = _bench_module("workloads").SOLVE_POOL
        self._check([(parse(text), ic, n)
                     for text, _, _, ic, top in pool for n in range(10, top + 1)], arrangement)

    @pytest.mark.parametrize("arrangement", ARRANGEMENTS)
    def test_oracle_case_runs_are_bitwise_fresh_runs(self, arrangement):
        # Overflowing cases included: a run above the order that overflows
        # raises, and one below is served.
        runs = []
        for text, initial in ORACLE_CASES.values():
            eq = parse(text)
            runs += [(eq, initial, n) for n in (len(initial) - 1, 10, 30, 80, 400)
                     if n >= len(initial) - 1]
        self._check(runs, arrangement)

    @pytest.mark.parametrize("arrangement", ARRANGEMENTS)
    def test_long_series_plan_runs_are_bitwise_fresh_runs(self, arrangement):
        workloads = _bench_module("workloads")
        self._check([(parse(text), ic, n)
                     for text, _, _, choices in workloads.LONG_PLANS for ic in choices
                     for n in workloads.LONG_ORDERS], arrangement)

    def test_a_kept_run_calls_no_kernel(self, monkeypatch):
        eq, initial = parse("D(u,2) = -1*u*exp(u) + exp(u)"), (0.1, 0.2)
        lang._longest_run.cache_clear()
        kept = run(lower(eq, 40), initial)
        monkeypatch.setattr(powers, "exp_step", lambda *args: pytest.fail("a kernel ran"))
        assert run(lower(eq, 40), list(initial)) is kept
        assert run(lower(eq, 25), initial).coeffs == kept.coeffs[:26]
        assert run(lower(eq, 1), initial).coeffs == initial
        with pytest.raises(pytest.fail.Exception, match="a kernel ran"):
            run(lower(eq, 41), initial)  # a longer run steps

    def test_signed_zero_initial_coefficients_are_two_keys(self):
        plan = lower(parse("D(u,1) = u"), 3)
        for first, second in [(-0.0, 0.0), (0.0, -0.0)]:
            lang._longest_run.cache_clear()
            runs = run(plan, (first,)), run(plan, (second,))
            assert [_hex(r) for r in runs] == [[first.hex()] * 4, [second.hex()] * 4]

    def test_a_run_that_raises_keeps_nothing(self):
        eq, initial = parse("D(u,1) = pow(u,2)"), (1e10,)
        lang._longest_run.cache_clear()
        with pytest.raises(NonFiniteCoefficientError) as first:
            run(lower(eq, 80), initial)
        k = first.value.order
        shorter = run(lower(eq, k - 1), initial)
        with pytest.raises(NonFiniteCoefficientError) as again:
            run(lower(eq, 80), initial)
        assert again.value is not first.value and again.value.order == k
        assert run(lower(eq, k - 1), initial) is shorter
        assert run(lower(eq, k - 2), initial).coeffs == shorter.coeffs[:-1]

    def test_the_last_128_keys_are_kept(self):
        assert lang._longest_run.cache_info().maxsize == 128
        plan = lower(parse("D(u,1) = -1*u"), 5)
        lang._longest_run.cache_clear()
        runs = [run(plan, (float(i),)) for i in range(129)]
        assert all(run(plan, (float(i),)) is runs[i] for i in range(1, 129))
        assert run(plan, (0.0,)) is not runs[0]  # the oldest key went first
        assert run(plan, (0.0,)) == runs[0]

    def test_a_shorter_run_that_returns_last_is_not_kept(self, monkeypatch):
        # A run to 20 is held in its first exp step until a run to 40 of
        # the same pair has returned; the run to 40 stays kept.
        eq, initial = parse("D(u,2) = -1*u*exp(u) + exp(u)"), (0.1, 0.2)
        exp_step, main = powers.exp_step, threading.current_thread()
        paused, resume = threading.Event(), threading.Event()

        def pausing(*args):
            if threading.current_thread() is not main and not paused.is_set():
                paused.set()
                resume.wait(30)
            return exp_step(*args)

        monkeypatch.setattr(powers, "exp_step", pausing)
        lang._longest_run.cache_clear()
        with ThreadPoolExecutor(1) as pool:
            shorter = pool.submit(run, lower(eq, 20), initial)
            assert paused.wait(30)
            longer = run(lower(eq, 40), initial)
            resume.set()
            assert shorter.result(timeout=30).coeffs == longer.coeffs[:21]
        assert run(lower(eq, 40), initial) is longer

    def test_the_kept_run_only_grows_under_threads(self):
        # Eight threads on two cores each run one pair at every order, in
        # an order of their own, switching within runs; the pair's box is
        # made first, so that every thread replaces the run in one box.
        eq, initial = parse("D(u,2) = -1*u*exp(u) + exp(u)"), (0.1, 0.2)
        plans = [lower(eq, n) for n in range(10, 90)]
        lang._longest_run.cache_clear()
        want = _hex(run(plans[-1], initial))
        lang._longest_run.cache_clear()
        run(lower(eq, 1), initial)
        box = lang._longest_run(eq, array("d", initial).tobytes())

        def job(seed):
            return all(_hex(run(plan, initial)) == want[:plan.order + 1]
                       for plan in random.Random(seed).sample(plans, len(plans)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(job, seed) for seed in range(8)]
                assert all(future.result(timeout=60) for future in futures)
        finally:
            sys.setswitchinterval(interval)
        assert _hex(box[0]) == want
