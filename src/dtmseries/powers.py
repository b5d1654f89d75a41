"""Integer powers and exponentials of truncated series.

Raising a series to an integer power by repeated Cauchy products costs one
convolution per factor. The single-sum recurrence credited to J.C.P. Miller
produces the same coefficients with one inner sum per output coefficient:

    W(0) = Y(0)^m
    W(k) = 1/(k*Y(0)) * sum_{j=1}^{k} [(m+1)*j - k] * Y(j) * W(k-j)

A companion recurrence handles the exponential of a series:

    W(0) = e^Y(0)
    W(k) = 1/k * sum_{j=1}^{k} j * Y(j) * W(k-j)

Miller's recurrence needs Y(0) != 0. When the constant term vanishes the
series is factored as y(x) = x^v * ybar(x) with v the valuation (smallest
index whose coefficient is nonzero); the recurrence runs on ybar and the
result shifts back up by v*m. "Nonzero" means exactly nonzero (0.0 under
float comparison); near-zero leading coefficients are the caller's problem,
because the 1/(k*Y(0)) prefactor amplifies their noise and a hidden
magnitude threshold would silently change answers.

``pow_naive`` and ``exp_naive`` build the same objects by brute force
(repeated convolution; summed Taylor terms of exp) and serve as the
independent oracles for the recurrences.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError
from .series import OpCount, Series, monomial, mul, zeros

__all__ = ["OpCount", "pow_int", "pow_naive", "exp_series", "exp_naive"]


def _int_pow(base: float, m: int, count: OpCount | None = None) -> float:
    # Repeated multiplication: m - 1 scalar multiplies for m >= 1.
    if m == 0:
        return 1.0
    r = base
    for _ in range(m - 1):
        r *= base
    if count is not None:
        count.multiplies += m - 1
    return r


def miller_step(
    y: Sequence[float],
    w: Sequence[float],
    k: int,
    m: int,
    count: OpCount | None = None,
) -> float:
    """One step of Miller's recurrence: W(k) from Y(0..k) and W(0..k-1).

    The inner sum runs j = 1..min(k, len(y)-1); terms beyond the length of
    y would reference undefined coefficients and are absent. Requires
    y[0] != 0 and k >= 1.
    """
    top = len(y) - 1
    jmax = k if k < top else top
    acc = 0.0
    for j in range(1, jmax + 1):
        acc += ((m + 1) * j - k) * (y[j] * w[k - j])
    if count is not None:
        count.multiplies += 2 * jmax + 1
    return acc / (k * y[0])


def exp_step(
    y: Sequence[float],
    w: Sequence[float],
    k: int,
    count: OpCount | None = None,
) -> float:
    """One step of the exponential recurrence: W(k) from Y(1..k), W(0..k-1)."""
    acc = 0.0
    for j in range(1, k + 1):
        acc += (j * y[j]) * w[k - j]
    if count is not None:
        count.multiplies += 2 * k
    return acc / k


def _valuation(a: Series) -> int | None:
    """Smallest index with an exactly nonzero coefficient, or None if a == 0."""
    for k, c in enumerate(a.coeffs):
        if c != 0.0:
            return k
    return None


def pow_int(a: Series, m: int) -> tuple[Series, OpCount]:
    """Coefficients of a(x)^m truncated at order(a), via Miller's recurrence.

    m = 0 returns the constant-one series (algebraic convention) unless a is
    identically zero, in which case 0^0 raises :class:`DomainError`. m = 1
    returns ``a`` unchanged. A zero constant term triggers the valuation
    shift described in the module docstring; if v*m exceeds the truncation
    order the result is the zero series.
    """
    if m < 0:
        raise ValueError("pow_int exponent must be a non-negative integer")
    count = OpCount()
    n = a.order
    v = _valuation(a)
    if v is None:
        if m == 0:
            raise DomainError("0^0 undefined: zero series raised to power zero")
        return zeros(n), count
    if m == 0:
        return monomial(0, n), count
    if m == 1:
        return a, count
    shift = v * m
    if shift > n:
        return zeros(n), count
    ybar = a.coeffs[v:]
    target = n - shift
    w = [0.0] * (target + 1)
    w[0] = _int_pow(ybar[0], m, count)
    for k in range(1, target + 1):
        w[k] = miller_step(ybar, w, k, m, count)
    out = [0.0] * (n + 1)
    out[shift : shift + target + 1] = w
    return Series(out), count


def pow_naive(a: Series, m: int) -> tuple[Series, OpCount]:
    """Oracle power: fold the Cauchy product over m copies of a.

    Performs exactly m - 1 full convolutions, (N+1)(N+2)/2 multiplies each.
    Same 0^0 error contract as :func:`pow_int`.
    """
    if m < 0:
        raise ValueError("pow_naive exponent must be a non-negative integer")
    count = OpCount()
    if m == 0:
        if _valuation(a) is None:
            raise DomainError("0^0 undefined: zero series raised to power zero")
        return monomial(0, a.order), count
    acc = a
    for _ in range(m - 1):
        acc = mul(acc, a, count)
    return acc, count


def exp_series(a: Series) -> tuple[Series, OpCount]:
    """Coefficients of e^{a(x)} truncated at order(a), via the single-sum recurrence."""
    count = OpCount()
    n = a.order
    w = [0.0] * (n + 1)
    w[0] = math.exp(a.coeffs[0])
    y = a.coeffs
    for k in range(1, n + 1):
        w[k] = exp_step(y, w, k, count)
    return Series(w), count


def exp_naive(a: Series, count: OpCount | None = None) -> Series:
    """Oracle exponential via summed Taylor terms of exp.

    Splits a = a[0] + atil where atil has zero constant term, then returns

        e^{a[0]} * sum_{m=0}^{N} atil^m / m!

    Because atil has valuation >= 1, truncating the outer sum at m = N is
    exact to order N. Without the constant split no finite outer sum would
    be exact when a[0] != 0. The running power atil^m is the same left fold
    of convolutions that :func:`pow_naive` performs; when ``count`` is
    given it accumulates those convolution multiplies.
    """
    n = a.order
    total = [0.0] * (n + 1)
    total[0] = 1.0
    if n >= 1:
        atil = Series((0.0,) + a.coeffs[1:])
        power = atil
        for m in range(1, n + 1):
            if m > 1:
                power = mul(power, atil, count)
            inv = 1.0 / math.factorial(m)
            pc = power.coeffs
            for k in range(m, n + 1):
                total[k] += pc[k] * inv
    lead = math.exp(a.coeffs[0])
    return Series(lead * t for t in total)
