"""Equation DSL: grammar, printer, lowering, and stepping."""

import math
from fractions import Fraction

import pytest

from dtmseries import (
    Add,
    Const,
    Deriv,
    Equation,
    EquationSyntaxError,
    Exp,
    ImplicitFormError,
    Mul,
    NonFiniteCoefficientError,
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
    derivative_transform,
    exp_naive,
    format_equation,
    lower,
    monomial,
    mul,
    parse,
    pow_naive,
    powers,
    run,
)
from util import relgap


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
                lambda sol, n: exp_naive(pow_naive(sol, 2)[0]),
            ),
            (
                "D(u,2) = exp(x * u)",
                [0.5, -0.2],
                lambda sol, n: exp_naive(mul(monomial(1, n), sol)),
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
    return [kind for kind, _, _ in plan.equation._program]


def _cauchy_products_of_x(plan):
    # The "mul" and "sq" slots that read an x^p slot.
    program = plan.equation._program
    return [(kind, args) for kind, _, args in program
            if kind in ("mul", "sq") and any(program[i][0] == "xpow" for i in args)]


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
        # The dataclasses compare -0.0 equal to 0.0; the slots must not.
        assert rhs.left == rhs.right
        program = lower(Equation(1, rhs), 3).equation._program
        kind, _, (left, right) = program[-1]
        assert kind == "add" and left != right
        assert [program[i][1].hex() for i in (left, right)] == ["-0x0.0p+0", "0x0.0p+0"]

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
    # under the product, so it runs series.mul_steps.
    return Add(x, Const(0.0))


class TestShiftProduct:
    """A product with x^p is a shift, bitwise equal to the Cauchy product."""

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
        assert "shift" in _kinds(shifted) and not _cauchy_products_of_x(shifted)
        assert "shift" not in _kinds(summed)
        assert _hex(run(shifted, initial)) == _hex(run(summed, initial))

    def test_negative_zero_operand_from_parse(self):
        got = run(lower(parse("D(u,2) = x*u"), 6), [-0.0, 0.0])
        want = run(lower(Equation(2, Mul(_no_monomial(Var()), U())), 6), [-0.0, 0.0])
        assert _hex(got) == _hex(want)
        assert got[3].hex() == "0x0.0p+0"

    @pytest.mark.parametrize(
        "m,initial,build,order",
        [
            # E(0) = inf and 0 * inf is NaN, so the Cauchy sum is not finite
            # at k = 0 already: the shift must hand over there, not at k = 1.
            (1, [1.0], lambda x: Mul(x, Scale(1e308, Scale(1e308, U()))), 1),
            (1, [1.0], lambda x: Mul(Scale(1e308, Scale(1e308, U())), x), 1),
            # E = 1e600 * (u - 1) is 0 at k = 0 and inf from k = 1: the sum
            # is NaN at k = 1 (order 3); a shift would see inf only at k = 2.
            (2, [1.0, 1.0], lambda x: Mul(x, Scale(1e300, Scale(1e300, Sub(U(), Const(1.0))))), 3),
        ],
        ids=["x-left", "x-right", "after-finite-steps"],
    )
    def test_overflow_names_the_order_of_the_product(self, m, initial, build, order):
        for x in (Var(), _no_monomial(Var())):
            with pytest.raises(NonFiniteCoefficientError) as err:
                run(lower(Equation(m, build(x)), 10), initial)
            assert err.value.order == order


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
