"""Series value type and the linear operator table."""

import math
import random
from fractions import Fraction

import pytest

from dtmseries import (
    DomainError,
    InvalidArgumentError,
    NonFiniteCoefficientError,
    OpCount,
    OrderMismatchError,
    Series,
    SeriesFormatError,
    add,
    derivative_transform,
    evaluate,
    load_series,
    monomial,
    mul,
    scale,
    sub,
    zeros,
)
from dtmseries.series import _div_exact, _evaluate_grid, _mul_exact
from util import divide

ULP = 2.0 * 2.2204460492503131e-16


class TestSeriesType:
    def test_order_and_len(self):
        s = Series([1.0, 2.0, 3.0])
        assert s.order == 2
        assert len(s) == 3
        assert s.coeffs == (1.0, 2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Series([1.0, float("nan")])
        with pytest.raises(ValueError):
            Series([float("inf")])

    def test_integer_too_large_for_a_float_names_its_index(self):
        with pytest.raises(InvalidArgumentError, match="index 1"):
            Series([1.0, 10**400])
        with pytest.raises(SeriesFormatError, match="index 0"):
            load_series('{"order":0,"coeffs":[' + "9" * 400 + "]}")

    @pytest.mark.parametrize("text", [" ", "\x1c", "\x1c\x1c", " \x1c \n"], ids=repr)
    def test_whitespace_only_file_is_empty(self, text):
        # "\x1c" is a line separator to splitlines and whitespace to lstrip.
        with pytest.raises(SeriesFormatError, match="empty series input"):
            load_series(text)

    def test_immutable_value_semantics(self):
        s = Series([1, 2])
        assert s == Series([1.0, 2.0])
        assert s != Series([1.0, 2.0, 0.0])
        assert hash(s) == hash(Series([1.0, 2.0]))
        with pytest.raises(AttributeError):
            s.coeffs = (0.0,)


class TestMonomial:
    def test_delta_at_zero(self):
        assert monomial(0, 3).coeffs == (1.0, 0.0, 0.0, 0.0)

    def test_delta_row(self):
        assert monomial(2, 4).coeffs == (0.0, 0.0, 1.0, 0.0, 0.0)

    def test_truncation_drops_high_power(self):
        assert monomial(5, 3) == zeros(3)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            monomial(-1, 3)
        with pytest.raises(ValueError):
            monomial(0, -1)


class TestAddScale:
    def test_pointwise_sum(self):
        assert add(Series([1, 2]), Series([3, 4])).coeffs == (4.0, 6.0)

    def test_pointwise_difference(self):
        assert sub(Series([1, 2]), Series([3, 5])).coeffs == (-2.0, -3.0)

    def test_scale(self):
        assert scale(2.0, Series([1, 0, 3])).coeffs == (2.0, 0.0, 6.0)

    def test_scale_by_zero(self):
        assert scale(0.0, Series([5, 7])).coeffs == (0.0, 0.0)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            add(Series([1, 2]), Series([1, 2, 3]))
        with pytest.raises(OrderMismatchError):
            sub(Series([1]), Series([1, 2]))


class TestMul:
    def test_multiplicative_identity(self):
        a = Series([2.5, -1.0, 0.125])
        assert mul(monomial(0, 2), a) == a

    def test_hand_convolution(self):
        assert mul(Series([1, 1, 0]), Series([1, -1, 0])).coeffs == (1.0, 0.0, -1.0)

    def test_x_times_x(self):
        assert mul(Series([0, 1, 0, 0]), Series([0, 1, 0, 0])).coeffs == (0.0, 0.0, 1.0, 0.0)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            mul(Series([1]), Series([1, 2]))

    def test_multiply_counter_closed_form(self):
        rng = random.Random(5)
        for n in (0, 1, 7, 31, 64):
            a = Series([rng.uniform(-1, 1) for _ in range(n + 1)])
            b = Series([rng.uniform(-1, 1) for _ in range(n + 1)])
            count = OpCount()
            mul(a, b, count)
            assert count.multiplies == (n + 1) * (n + 2) // 2

    def test_counter_accumulates_across_calls(self):
        count = OpCount()
        a = Series([1.0, 2.0])
        mul(a, a, count)
        mul(a, a, count)
        assert count.multiplies == 2 * 3


class TestDerivativeTransform:
    def test_identity_at_zero(self):
        a = Series([1.5, 2.5])
        assert derivative_transform(a, 0) is a

    def test_first_derivative_of_x_squared(self):
        assert derivative_transform(Series([0, 0, 1]), 1).coeffs == (0.0, 2.0)

    def test_second_derivative_shift(self):
        assert derivative_transform(Series([1, 1, 1, 1]), 2).coeffs == (2.0, 6.0)

    def test_order_too_high(self):
        with pytest.raises(OrderMismatchError):
            derivative_transform(Series([1, 2]), 2)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            derivative_transform(Series([1, 2]), -1)

    def test_no_overflow_at_large_order(self):
        # (k+m)!/k! as two factorials would overflow past 170!; the running
        # product must not.
        n = 250
        a = Series([1.0] * (n + 1))
        out = derivative_transform(a, 3)
        assert all(math.isfinite(c) for c in out)
        k = 200
        assert out[k] == float((k + 1) * (k + 2) * (k + 3))

    @pytest.mark.parametrize("m", [19, 25, 171])
    def test_factor_above_2_53_is_once_rounded(self, m):
        # perm(k + m, m) is above 2^53: a float that rounds it for m = 19
        # and 25, none for m = 171. With Y(k) = 1/k! each product is about
        # 1/k!, the exact product rounded once.
        cs = [1 / math.factorial(k) for k in range(m + 20)]
        out = derivative_transform(Series(cs), m)
        assert list(out) == [float(math.perm(k + m, m) * Fraction(c))
                             for k, c in enumerate(cs[m:])]
        assert out[3] == pytest.approx(1 / 6, rel=1e-6)


class TestExactFactors:
    """The integer-ratio helpers against the ``Fraction`` spec, bitwise."""

    NS = [2**53 + 1, math.factorial(25), math.factorial(170), math.factorial(171)]
    NS_IDS = ["2^53+1", "25!", "170!", "171!"]
    XS = [1.0, -1 / 3, 0.1, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
          1e-300, 1e300]

    @pytest.mark.parametrize("n", NS, ids=NS_IDS)
    def test_quotient_is_the_exact_one_rounded_once(self, n):
        for x in self.XS:
            assert _div_exact(x, n).hex() == divide(x, n).hex()

    @pytest.mark.parametrize("n", NS, ids=NS_IDS)
    def test_product_is_the_exact_one_rounded_once(self, n):
        for x in self.XS:
            try:
                want = float(n * Fraction(x)).hex()
            except OverflowError:
                with pytest.raises(OverflowError):
                    _mul_exact(n, x)
            else:
                assert _mul_exact(n, x).hex() == want

    def test_subnormal_quotient(self):
        # 1 / 171! lies below the smallest normal float.
        assert 0.0 < _div_exact(1.0, math.factorial(171)) < 2.2250738585072014e-308
        assert _div_exact(5e-324, 2**53 + 1) == 0.0

    def test_product_without_a_float_overflows(self):
        with pytest.raises(OverflowError):
            _mul_exact(math.factorial(171), 1.0)
        with pytest.raises(OverflowError):
            _mul_exact(math.factorial(25), 1e300)

    def test_zero_and_non_finite_pass_through(self):
        n = math.factorial(171)
        for x in (0.0, -0.0, math.inf, -math.inf):
            assert _div_exact(x, n).hex() == x.hex()
        assert math.isnan(_div_exact(math.nan, n))
        for x in (0.0, -0.0):
            assert _mul_exact(n, x).hex() == x.hex()


@pytest.mark.parametrize(
    "op,index",
    [
        (lambda: add(Series([1.0, 1e308]), Series([1.0, 1e308])), 1),
        (lambda: sub(Series([0.0, -1e308]), Series([0.0, 1e308])), 1),
        (lambda: scale(1e300, Series([1.0, 1e300])), 1),
        (lambda: derivative_transform(Series([0.0, 0.0, 1.0, 1e308]), 2), 1),
        # 200! exceeds the float range, and so does the exact product.
        (lambda: derivative_transform(Series([1.0] * 201), 200), 0),
    ],
    ids=["add", "sub", "scale", "derivative_transform", "derivative_factorial"],
)
def test_linear_overflow_names_the_index(op, index):
    with pytest.raises(NonFiniteCoefficientError) as info:
        op()
    assert info.value.order == index


class TestEvaluate:
    def test_at_zero(self):
        assert evaluate(Series([4.25, 1, 2]), 0.0) == 4.25

    def test_direct_substitution(self):
        assert evaluate(Series([1, 2, 3]), 0.5) == 2.75

    def test_monomial_square(self):
        assert evaluate(monomial(2, 4), 3.0) == 9.0


def _hexes(values):
    return [v.hex() for v in values]


class TestEvaluateGrid:
    """_evaluate_grid is evaluate at every point, bit for bit."""

    XS = [-1.25, -1.0, -0.5, -1e-3, -0.0, 0.0, 1e-3, 0.3, 0.5, 1.0, 1.25]

    @pytest.mark.parametrize("order", [*range(41), 200])
    def test_bitwise_evaluate_at_every_point(self, order):
        rng = random.Random(order)
        mixed = [rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0))) for _ in range(order + 1)]
        zero = [rng.choice((0.0, -0.0)) for _ in range(order + 1)]
        for cs in (mixed, zero, [-0.0] * (order + 1)):
            a = Series(cs)
            assert _hexes(_evaluate_grid(a, self.XS)) == _hexes(evaluate(a, x) for x in self.XS)

    def test_an_empty_grid_has_no_values(self):
        assert _evaluate_grid(Series([1.0, 2.0]), []) == []

    @pytest.mark.parametrize("xs, first", [
        ([0.0, 1.0, 2.0, 3.0, -0.5], 2.0),
        ([0.5, -3.0, 2.0, -0.0], -3.0),
    ])
    def test_an_overflow_names_the_first_x_whose_value_is_not_finite(self, xs, first):
        a = Series([0.0, 1e308] + [0.0] * 20)
        with pytest.raises(DomainError) as err:
            _evaluate_grid(a, xs)
        with pytest.raises(DomainError) as want:
            evaluate(a, first)
        assert str(err.value) == str(want.value) == f"the series value at x={first!r} overflows"


class TestAlgebraicProperties:
    def _random_pair(self, rng, max_order=64):
        n = rng.randint(0, max_order)
        a = Series([rng.uniform(-1, 1) for _ in range(n + 1)])
        b = Series([rng.uniform(-1, 1) for _ in range(n + 1)])
        return a, b

    def test_add_commutes_and_associates(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b = self._random_pair(rng)
            c = Series([rng.uniform(-1, 1) for _ in range(a.order + 1)])
            assert max(
                abs(x - y) for x, y in zip(add(a, b), add(b, a))
            ) <= 1e-13
            lhs = add(add(a, b), c)
            rhs = add(a, add(b, c))
            assert max(abs(x - y) for x, y in zip(lhs, rhs)) <= 1e-13

    def test_mul_commutes_and_associates(self):
        rng = random.Random(12)
        for _ in range(30):
            a, b = self._random_pair(rng, max_order=48)
            c = Series([rng.uniform(-1, 1) for _ in range(a.order + 1)])
            assert max(
                abs(x - y) for x, y in zip(mul(a, b), mul(b, a))
            ) <= 1e-13
            lhs = mul(mul(a, b), c)
            rhs = mul(a, mul(b, c))
            assert max(abs(x - y) for x, y in zip(lhs, rhs)) <= 1e-13

    def test_distributivity(self):
        rng = random.Random(13)
        for _ in range(30):
            a, b = self._random_pair(rng)
            c = Series([rng.uniform(-1, 1) for _ in range(a.order + 1)])
            lhs = mul(a, add(b, c))
            rhs = add(mul(a, b), mul(a, c))
            assert max(abs(x - y) for x, y in zip(lhs, rhs)) <= 1e-12

    def test_derivative_transform_linearity(self):
        # Linear to machine rounding: the error scales with the two weighted
        # addends, which may cancel in the sum.
        rng = random.Random(14)
        for _ in range(100):
            a, b = self._random_pair(rng, max_order=20)
            m = rng.randint(0, min(4, a.order))
            lhs = derivative_transform(add(a, b), m)
            da = derivative_transform(a, m)
            db = derivative_transform(b, m)
            rhs = add(da, db)
            for k, (x, y) in enumerate(zip(lhs, rhs)):
                assert abs(x - y) <= ULP * (abs(da[k]) + abs(db[k]) + 1.0)

    def test_evaluate_of_product_matches_product_of_values(self):
        rng = random.Random(15)
        for _ in range(40):
            n = rng.randint(1, 24)
            a = Series([rng.uniform(-1, 1) for _ in range(n + 1)])
            b = Series([rng.uniform(-1, 1) for _ in range(n + 1)])
            x = rng.uniform(-0.1, 0.1)
            got = evaluate(mul(a, b), x)
            want = evaluate(a, x) * evaluate(b, x)
            cmax = max(max(abs(c) for c in a), max(abs(c) for c in b))
            tol = 10.0 * abs(x) ** (n + 1) * (n + 1) * cmax * cmax + 1e-15
            assert abs(got - want) <= tol
