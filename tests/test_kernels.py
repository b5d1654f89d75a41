"""The C-level inner sums of the four kernels against plain Python loops.

``mul_step``, ``sq_step``, ``miller_step`` and ``exp_step`` each compute
their inner sum as one ``sum(map(operator.mul, ...), 0.0)``. Before Python
3.12 ``sum`` adds floats left to right in one double, exactly as the loops
below do, so every coefficient must agree bit for bit (compared with
``float.hex``, so the sign of a zero counts). From 3.12 on ``sum``
compensates its rounding; there each coefficient must agree within
(k+1)*eps*sum|terms| of the loop, scaled by the divisor of the step.

Each stepper check runs the loop on the stepper's own earlier outputs, so
it tests one step at a time and stays meaningful on either version.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from dtmseries import OpCount
from dtmseries.powers import exp_steps, miller_step, pow_int, pow_steps
from dtmseries.series import Series, mul, mul_step, mul_steps, sq_step, sq_steps

EPS = sys.float_info.epsilon
ORDER = 12


def assert_matches_loop(got, want, terms, divisor=1.0):
    if sys.version_info < (3, 12):
        assert got.hex() == want.hex()
    else:
        bound = (len(terms) + 1) * EPS * sum(map(abs, terms)) / abs(divisor)
        assert abs(got - want) <= bound


def loop_sum(terms):
    acc = 0.0
    for t in terms:
        acc += t
    return acc


def loop_power(base, m):
    # Left-to-right binary powering: square per bit after the leading one,
    # then multiply by the base where the bit is set.
    acc = base
    for bit in bin(m)[3:]:
        acc *= acc
        if bit == "1":
            acc *= base
    return acc


def mul_terms(a, b, k):
    return [a[l] * b[k - l] for l in range(k + 1)]


def sq_loop(a, k):
    # The square's loop: half the pairs, doubled, plus the middle square.
    acc = loop_sum([a[j] * a[k - j] for j in range((k + 1) // 2)])
    acc += acc
    return acc + a[k // 2] * a[k // 2] if k % 2 == 0 else acc


def miller_terms(y, w, k, m):
    jmax = min(k, len(y) - 1)
    return [((m + 1) * j - k) * (y[j] * w[k - j]) for j in range(1, jmax + 1)]


def exp_terms(y, w, k):
    return [(j * y[j]) * w[k - j] for j in range(1, k + 1)]


def coeffs(rng, n, lead_zeros=0):
    """Random coefficients with ``lead_zeros`` leading zeros (one of them
    -0.0) and some -0.0 entries in the tail."""
    cs = [0.0] * lead_zeros + [rng.uniform(0.5, 2.0)]
    cs += [rng.choice((-0.0, rng.uniform(-1.0, 1.0))) for _ in range(n - len(cs))]
    if lead_zeros:
        cs[0] = -0.0
    return cs


class TestMulStep:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop(self, seed):
        rng = random.Random(seed)
        a = coeffs(rng, ORDER + 1, lead_zeros=seed % 3)
        b = coeffs(rng, ORDER + 1)
        for k in range(ORDER + 1):
            count = OpCount()
            got = mul_step(a, b[k::-1], k, count)
            terms = mul_terms(a, b, k)
            assert_matches_loop(got, loop_sum(terms), terms)
            assert count.multiplies == k + 1

    @pytest.mark.parametrize("seed", range(4))
    def test_stepper_over_growing_buffers_matches_loop(self, seed):
        # Both operands grow by one coefficient per step, as in a DSL run.
        rng = random.Random(seed)
        a = coeffs(rng, ORDER + 1, lead_zeros=seed % 3)
        b = coeffs(rng, ORDER + 1)
        buf_a, buf_b = [], []
        count = OpCount()
        steps = mul_steps(buf_a, buf_b, count)
        for k in range(ORDER + 1):
            buf_a.append(a[k])
            buf_b.append(b[k])
            got = next(steps)
            terms = mul_terms(a, b, k)
            assert_matches_loop(got, loop_sum(terms), terms)
        assert count.multiplies == (ORDER + 1) * (ORDER + 2) // 2

    def test_negative_zero_products_sum_to_positive_zero(self):
        # The loop starts from 0.0, and 0.0 + -0.0 is 0.0.
        assert mul_step([-0.0, -0.0], [1.0, 1.0], 1).hex() == (0.0).hex()


class TestSqStep:
    @pytest.mark.parametrize("seed", range(4))
    def test_stepper_over_growing_buffer_matches_loop(self, seed):
        rng = random.Random(seed)
        a = coeffs(rng, ORDER + 1, lead_zeros=seed % 3)
        buf = []
        count = OpCount()
        steps = sq_steps(buf, count)
        for k in range(ORDER + 1):
            buf.append(a[k])
            got = next(steps)
            terms = [a[j] * a[k - j] for j in range(k + 1)]
            if sys.version_info < (3, 12):
                assert got.hex() == sq_loop(a, k).hex()
            else:
                assert abs(got - sq_loop(a, k)) <= (k + 2) * EPS * sum(map(abs, terms))
        assert count.multiplies == (ORDER + 2) ** 2 // 4

    @pytest.mark.parametrize("k", range(6))
    def test_count_is_half_k_plus_one(self, k):
        count = OpCount()
        a = [0.5, -1.0, 2.0, 0.25, -0.75, 1.5]
        sq_step(a, a[k::-1], k, count)
        assert count.multiplies == k // 2 + 1

    def test_matches_the_cauchy_product(self):
        # Each product is formed once and doubled, so the two sums differ
        # only by rounding; at k = 0 both are 0.0 + A(0)^2.
        rng = random.Random(7)
        a = coeffs(rng, 201, lead_zeros=1)
        got = list(itertools.islice(sq_steps(a), len(a)))
        want = mul(Series(a), Series(a)).coeffs
        bound = mul(Series(map(abs, a)), Series(map(abs, a))).coeffs
        assert got[0].hex() == want[0].hex()
        assert all(abs(g - w) <= 2 * 201 * EPS * b for g, w, b in zip(got, want, bound))


class TestMillerStep:
    @pytest.mark.parametrize("m", (2, 3, 5, 6))
    @pytest.mark.parametrize("v", (0, 1, 2))
    def test_stepper_matches_loop(self, m, v):
        rng = random.Random(10 * m + v)
        y = coeffs(rng, ORDER + 1, lead_zeros=v)
        w = list(itertools.islice(pow_steps(y, m), ORDER + 1))
        shift = v * m
        assert all(c == 0.0 for c in w[:shift])
        ybar, wbar = y[v:], w[shift:]
        # W(0) = Y(0)^m, raised by the left-to-right bits of m; it is also
        # within m rounding errors of the exact power.
        assert wbar[0].hex() == loop_power(ybar[0], m).hex()
        exact = Fraction(ybar[0]) ** m
        assert abs(Fraction(wbar[0]) - exact) <= m * EPS * abs(exact)
        negative = 0
        for k in range(1, len(wbar)):
            terms = miller_terms(ybar, wbar, k, m)
            negative += sum((m + 1) * j < k for j in range(1, k + 1))
            divisor = k * ybar[0]
            assert_matches_loop(wbar[k], loop_sum(terms) / divisor, terms, divisor)
        if v == 0:
            assert negative > 0

    @pytest.mark.parametrize("m", (1, 2, 4))
    def test_short_operand(self, m):
        # len(y) - 1 < k: the sum stops at j = len(y) - 1.
        rng = random.Random(m)
        y = coeffs(rng, 4)
        w = [rng.uniform(-1.0, 1.0) for _ in range(10)]
        k = 9
        count = OpCount()
        got = miller_step(y, w[k - 1::-1], k, m, count)
        terms = miller_terms(y, w, k, m)
        assert len(terms) == 3
        divisor = k * y[0]
        assert_matches_loop(got, loop_sum(terms) / divisor, terms, divisor)
        assert count.multiplies == 2 * 3 + 1

    def test_first_step(self):
        y, w = [2.0, -0.0], [4.0]
        got = miller_step(y, w[::-1], 1, 2)
        assert got.hex() == (loop_sum(miller_terms(y, w, 1, 2)) / 2.0).hex()

    def test_large_exponent(self):
        # The weights run up to (m+1)*k - k; a large m costs no extra memory
        # or time, and the weights stay exact integers below 2^53. Y(0)^m
        # costs one multiply per square and per set bit after the leading
        # one: 19 squares and 6 products for m = 10^6.
        m = 10**6
        y = [1.0, 1e-7, -2e-8, 0.0, 3e-9, -0.0]
        got, count = pow_int(Series(y), m)
        w = got.coeffs
        assert w[0] == 1.0
        for k in range(1, len(w)):
            terms = miller_terms(y, w, k, m)
            assert_matches_loop(w[k], loop_sum(terms) / k, terms, k)
        assert count.multiplies == 19 + 6 + sum(2 * k + 1 for k in range(1, len(y)))

    def test_huge_exponent_is_quick(self):
        # Y(0)^m takes 39 squares and 39 products for m = 2^40 - 1, not
        # 2^40 - 2 multiplies.
        m = 2**40 - 1
        got, count = pow_int(Series([1.0, 1e-20, 0.0]), m)
        assert got[0] == 1.0 and got[1] == m * 1e-20
        assert count.multiplies == 78 + 3 + 5

    def test_weights_near_two_to_the_53(self):
        m, k = 2**40, 4000
        rng = random.Random(m)
        y = coeffs(rng, k + 1)
        w = [rng.uniform(-1.0, 1.0) for _ in range(k)]
        terms = miller_terms(y, w, k, m)
        assert max(map(abs, terms)) > 0.0 and (m + 1) * k < 2**53
        divisor = k * y[0]
        assert_matches_loop(miller_step(y, w[::-1], k, m), loop_sum(terms) / divisor, terms, divisor)


class TestExpStep:
    @pytest.mark.parametrize("v", (0, 1, 2))
    def test_stepper_matches_loop(self, v):
        rng = random.Random(v)
        y = coeffs(rng, ORDER + 1, lead_zeros=v)
        w = list(itertools.islice(exp_steps(y), ORDER + 1))
        for k in range(1, ORDER + 1):
            terms = exp_terms(y, w, k)
            assert_matches_loop(w[k], loop_sum(terms) / k, terms, k)

    def test_count_is_k_plus_one_per_step(self):
        count = OpCount()
        list(itertools.islice(exp_steps([0.5, 1.0, -0.0, 2.0], count), 4))
        assert count.multiplies == 2 + 3 + 4
