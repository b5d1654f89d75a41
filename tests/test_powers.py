"""Binary powering, Miller's power recurrence, the exp recurrence, and their naive oracles."""

import math
import random
from fractions import Fraction

import pytest

from dtmseries import (
    DomainError,
    NonFiniteCoefficientError,
    OpCount,
    Series,
    add,
    exp_naive,
    exp_series,
    lang,
    monomial,
    mul,
    pow_int,
    pow_naive,
    zeros,
)
from dtmseries.powers import BINARY_POW_MAX, _pow_miller, power_chain
from util import oracle_series, oracle_series_valuation, relgap


class TestPowInt:
    def test_square_of_one_plus_x(self):
        got, _ = pow_int(Series([1, 1, 0, 0]), 2)
        want, _ = pow_naive(Series([1, 1, 0, 0]), 2)
        assert got == want == Series([1, 2, 1, 0])

    def test_identity_power_returns_input_exactly(self):
        a = Series([0.3, -0.7, 1.9])
        got, count = pow_int(a, 1)
        assert got is a
        assert count.multiplies == 0

    def test_multiply_count(self):
        a = oracle_series(random.Random(0), order=64)
        # Miller: 3 squares and 1 product for W(0) = Y(0)^9 (binary 1001),
        # then 2k + 1 at step k: N(N+2) + 4 to order N.
        assert pow_int(a, 9)[1].multiplies == 64 * 66 + 4
        # Binary powering: floor((N+2)^2/4) per square, (N+1)(N+2)/2 per product.
        square, product = 66 * 66 // 4, 65 * 66 // 2
        for m, (squares, products) in {2: (1, 0), 3: (1, 1), 4: (2, 0), 5: (2, 1),
                                       6: (2, 1), 7: (2, 2), 8: (3, 0)}.items():
            assert pow_int(a, m)[1].multiplies == squares * square + products * product

    def test_valuation_shift(self):
        # (x + x^2)^2 = x^2 (1 + x)^2; exercises v = 1.
        got, _ = pow_int(Series([0, 1, 1, 0, 0]), 2)
        want, _ = pow_naive(Series([0, 1, 1, 0, 0]), 2)
        assert got == want == Series([0, 0, 1, 2, 1])

    def test_cube_binomial(self):
        got, _ = pow_int(Series([1, 1, 0, 0, 0]), 3)
        assert got == Series([1, 3, 3, 1, 0])

    def test_power_zero_is_one_series(self):
        assert pow_int(Series([2, 3, 4]), 0)[0] == monomial(0, 2)

    def test_zero_to_the_zero_errors(self):
        with pytest.raises(DomainError, match="0\\^0"):
            pow_int(zeros(3), 0)

    def test_zero_series_to_positive_power(self):
        assert pow_int(zeros(4), 3)[0] == zeros(4)

    def test_valuation_shift_beyond_order(self):
        # (x^2)^2 = x^4 truncates away entirely at order 2.
        assert pow_int(Series([0, 0, 1]), 2)[0] == zeros(2)

    def test_exponent_without_a_float_is_a_typed_overflow(self):
        # Miller's weight (m+1)*j - k has no float for m = 10^400, and the
        # true W(1) = m * 0.5 overflows there too; 10^5000 has more decimal
        # digits than int() converts, which the generated code must not need.
        for m in (10**400, 10**5000):
            with pytest.raises(NonFiniteCoefficientError) as err:
                pow_int(Series([1.0, 0.5, 0.0]), m)
            assert err.value.order == 1
        assert pow_int(Series([-1.0]), 10**5000 + 1)[0] == Series([-1.0])
        assert pow_int(Series([0.0, 1.0]), 10**5000)[0] == Series([0.0, 0.0])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            pow_int(Series([1, 1]), -1)


def zero_in_disk(order):
    """0.8 (1 - x/1.2)^(-0.9) (1 + 2x): its zero, -0.5, lies inside its disk."""
    y, t = [], 0.8
    for k in range(order + 1):
        y.append(t)
        t = t * (0.9 + k) / ((k + 1) * 1.2)
    return Series([y[0]] + [y[k] + 2.0 * y[k - 1] for k in range(1, order + 1)])


def overflow_index(power, a, m):
    """The index that ``power(a, m)`` names as non-finite, or None."""
    try:
        power(a, m)
    except NonFiniteCoefficientError as err:
        return err.order
    return None


class TestBinaryPowering:
    def test_chain(self):
        assert [power_chain(m) for m in (1, 2, 3, 5, 6, 7, 8, 9)] == [
            (), ("sq",), ("sq", "mul"), ("sq", "sq", "mul"), ("sq", "mul", "sq"),
            ("sq", "mul", "sq", "mul"), ("sq", "sq", "sq"), ("pow",),
        ]

    @pytest.mark.parametrize("m", range(2, BINARY_POW_MAX + 1))
    def test_zero_in_disk_matches_naive(self, m):
        # Miller's recurrence divides by Y(0), and its errors grow like
        # (R/|z|)^k: here it was wrong from index 34 (m = 2) to 57 (m = 8)
        # on. Each coefficient must be within 1e-9 of the naive fold of |a|.
        a = zero_in_disk(1000)
        got = pow_int(a, m)[0]
        want = pow_naive(a, m)[0]
        bound = pow_naive(Series(map(abs, a)), m)[0]
        assert all(abs(g - w) <= 1e-9 * b for g, w, b in zip(got, want, bound))

    @pytest.mark.parametrize("m", range(2, BINARY_POW_MAX + 2))
    @pytest.mark.parametrize("coeffs", [[1e100] * 6, [10.0 ** (44 * k) for k in range(8)]],
                             ids=["flat", "geometric"])
    def test_overflow_names_the_index_of_the_naive_fold(self, coeffs, m):
        # [1e100]*6 overflows at index 0 from m = 4 on and not below;
        # Miller named index 1 for m = 3. The geometric one, at index 7.
        a = Series(coeffs)
        assert overflow_index(pow_int, a, m) == overflow_index(pow_naive, a, m)

    def test_overflow_names_the_index_of_the_power(self):
        # y^4(0) = 1e320 overflows, so the power is not finite from index 0.
        # The fold's partial product y^2 overflows first at index 5, where
        # pow_naive stops; the chain checks only its last stage.
        a = Series([1e80, 0, 0, 0, 0, 1e230, 0])
        assert overflow_index(pow_int, a, 4) == 0
        assert overflow_index(pow_naive, a, 4) == 5

    @pytest.mark.parametrize("kind,m", [
        *(pytest.param("pow", m, id=str(m)) for m in [*range(2, 13), 10**6 + 3]),
        pytest.param("mul", 0, id="mul"),
        pytest.param("exp", 0, id="exp"),
        pytest.param("miller", 3, id="miller-3"),
        pytest.param("miller", 10**6 + 3, id="miller-1000003"),
    ])
    def test_chain_built_once_per_m_runs_as_a_fresh_build(self, kind, m):
        # Each whole-series program is compiled once per (kind, m): the first
        # and a later call give the bits and counts of a program compiled
        # afresh, with the shape cache emptied, for the call.
        rng = random.Random(m)
        a = oracle_series(rng, 40) if m <= 12 else Series(
            [1.0] + [rng.uniform(-1e-7, 1e-7) for _ in range(40)])
        b = oracle_series(rng, 40)
        call, inputs = {
            "pow": (lambda: pow_int(a, m), (a.coeffs,)),
            "mul": (lambda: (mul(a, b, count := OpCount()), count), (a.coeffs, b.coeffs)),
            "exp": (lambda: exp_series(a), (a.coeffs,)),
            "miller": (lambda: _pow_miller(a, m), (a.coeffs,)),
        }[kind]
        lang._whole_series.cache_clear()
        first, later = call(), call()
        assert lang._whole_series.cache_info().misses == 1
        lang._executor.cache_clear()
        u, count = [], OpCount()
        lang._whole_series.__wrapped__(kind, m)(u, a.order, inputs, count)
        for power, power_count in (first, later):
            assert list(map(float.hex, power)) == list(map(float.hex, u))
            assert power_count == count

    def test_above_the_cutoff_is_miller_bitwise(self):
        a = oracle_series(random.Random(9), order=40)
        m = BINARY_POW_MAX + 1
        (power, count), (miller, miller_count) = pow_int(a, m), _pow_miller(a, m)
        assert list(map(float.hex, power)) == list(map(float.hex, miller))
        assert count == miller_count


class TestPowNaive:
    def test_square_is_self_product(self):
        a = Series([0.5, 1.5, -2.0, 0.25])
        assert pow_naive(a, 2)[0] == mul(a, a)

    def test_cube_by_hand(self):
        assert pow_naive(Series([1, 1, 0, 0]), 3)[0] == Series([1, 3, 3, 1])

    def test_convolution_count_m8_n64(self):
        a = oracle_series(random.Random(0), order=64)
        _, count = pow_naive(a, 8)
        assert count.multiplies == 7 * (65 * 66 // 2) == 15015

    def test_convolution_count_m2_n64(self):
        a = oracle_series(random.Random(0), order=64)
        _, count = pow_naive(a, 2)
        assert count.multiplies == 65 * 66 // 2 == 2145

    def test_zero_to_the_zero_errors(self):
        with pytest.raises(DomainError, match="0\\^0"):
            pow_naive(zeros(2), 0)


class TestExpSeries:
    def test_exp_of_zero(self):
        got, _ = exp_series(zeros(2))
        assert got == Series([1, 0, 0])

    def test_exp_of_x_gives_reciprocal_factorials(self):
        got, _ = exp_series(Series([0, 1, 0, 0, 0]))
        want = [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15

    def test_exp_of_x_squared(self):
        got, _ = exp_series(Series([0, 0, 1, 0, 0]))
        assert relgap(got, Series([1, 0, 1, 0, 0.5])) <= 1e-15
        assert relgap(got, exp_naive(Series([0, 0, 1, 0, 0]))[0]) <= 1e-15

    @pytest.mark.parametrize("n", (0, 1, 3, 64))
    def test_multiply_count(self, n):
        # k for the dot product and one for dY(k) = k*Y(k) at step k.
        _, count = exp_series(oracle_series(random.Random(n), order=n))
        assert count.multiplies == n * (n + 3) // 2

    def test_constant_exponent(self):
        got, _ = exp_series(Series([2.0, 0.0]))
        assert got == Series([math.exp(2.0), 0.0])


class TestExpNaive:
    def test_truncated_exp_of_x(self):
        assert exp_naive(Series([0, 1, 0]))[0] == Series([1, 1, 0.5])

    def test_constant_exponent(self):
        assert exp_naive(Series([2, 0, 0]))[0] == Series([math.exp(2.0), 0.0, 0.0])

    def test_counts_convolution_multiplies(self):
        _, count = exp_naive(oracle_series(random.Random(0), order=16))
        # m = 2..16 each cost one convolution of (17*18)/2 multiplies
        assert count.multiplies == 15 * (17 * 18 // 2)

    def test_orders_beyond_float_factorials(self):
        # From m = 171 on, m! has no float; e^{0.5 + 3x} has the normal
        # coefficient e^0.5 * 3^180 / 180! = 6.25e-244 at order 180.
        a = Series([0.5, 3.0] + [0.0] * 179)
        got, _ = exp_naive(a)
        assert relgap(got, exp_series(a)[0]) <= 1e-10
        want = math.exp(0.5) * float(Fraction(3) ** 180 / math.factorial(180))
        assert abs(got[180] - want) <= 1e-14 * want


class TestOracleEquivalence:
    # m = 2..8 runs binary powering, m = 9 and 10 Miller's recurrence.
    def test_miller_matches_naive(self):
        rng = random.Random(34)
        for _ in range(100):
            a = oracle_series(rng)
            for m in range(2, 11):
                assert relgap(pow_int(a, m)[0], pow_naive(a, m)[0]) <= 1e-10

    def test_miller_matches_naive_valuation_path(self):
        rng = random.Random(34)
        for _ in range(100):
            a = oracle_series_valuation(rng)
            for m in range(2, 11):
                assert relgap(pow_int(a, m)[0], pow_naive(a, m)[0]) <= 1e-10

    def test_miller_matches_naive_mixed_orders(self):
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randint(4, 64)
            a = oracle_series(rng, order=n)
            m = rng.randint(2, 8)
            assert relgap(pow_int(a, m)[0], pow_naive(a, m)[0]) <= 1e-10

    def test_exp_matches_naive(self):
        rng = random.Random(34)
        for _ in range(100):
            a = oracle_series(rng)
            assert relgap(exp_series(a)[0], exp_naive(a)[0]) <= 1e-10


class TestAlgebraicProperties:
    def test_exp_homomorphism(self):
        rng = random.Random(10)
        for _ in range(60):
            n = rng.randint(2, 32)
            a = Series([rng.uniform(-1, 1) for _ in range(n + 1)])
            b = Series([rng.uniform(-1, 1) for _ in range(n + 1)])
            lhs = exp_series(add(a, b))[0]
            rhs = mul(exp_series(a)[0], exp_series(b)[0])
            assert relgap(lhs, rhs) <= 1e-9

    def test_power_law(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.randint(4, 32)
            a = oracle_series(rng, order=n)
            p = rng.randint(1, 4)
            q = rng.randint(1, 4)
            lhs = pow_int(a, p + q)[0]
            rhs = mul(pow_int(a, p)[0], pow_int(a, q)[0])
            assert relgap(lhs, rhs) <= 1e-9


class TestCostScaling:
    def test_single_sum_beats_iterated_convolution(self):
        a = oracle_series(random.Random(0), order=64)
        _, rec = pow_int(a, 8)
        _, naive = pow_naive(a, 8)
        assert naive.multiplies == 15015
        assert naive.multiplies / rec.multiplies >= 3.0

    def test_exp_recurrence_is_cheaper(self):
        a = oracle_series(random.Random(0), order=64)
        _, rec = exp_series(a)
        _, naive = exp_naive(a)
        assert rec.multiplies <= naive.multiplies
