"""Integer powers and exponentials of truncated series.

Raising a series to an integer power m by repeated Cauchy products costs
m - 1 convolutions. Two cheaper constructions are used here, and only
:func:`power_chain` chooses between them, by m.

For 2 <= m <= :data:`BINARY_POW_MAX` = 8, binary powering (Knuth, TAOCP
vol. 2, 4.6.3) reads the bits of m from the left: a square for each bit
after the leading one, then a product with the base if that bit is set,
so m = 5 (binary 101) is square, square, times y. A square is the
symmetric Cauchy sum of :func:`~dtmseries.series.sq_step`, about half a
product. To order N = 1000 the chain costs 0.25e6, 0.75e6, 0.50e6,
1.00e6, 1.00e6, 1.51e6 and 0.75e6 multiplies for m = 2..8, where Miller's
recurrence costs 1.00e6 for every m. In one process, interleaved (CPython
3.11, 2-vCPU Xeon), the chain took 0.26, 0.69, 0.51, 0.93, 0.93, 1.30 and
0.72 times Miller's time. m = 7 is slower on the chain and stays there
for stability.

Above the cutoff the chain is the single stage ("pow",): the single-sum
recurrence credited to J.C.P. Miller (TAOCP vol. 2, 4.7) produces the
coefficients with one inner sum per output coefficient:

    W(0) = Y(0)^m
    W(k) = 1/(k*Y(0)) * sum_{j=1}^{k} [(m+1)*j - k] * Y(j) * W(k-j)

Y(0)^m is raised by the same bits of m, so the cost grows like log m.
It is exact in exact arithmetic but unstable in floats when ybar (below)
has a zero z inside its own disk of convergence, of radius R: it divides
by Y(0) to solve y*w' = m*y'*w, and its rounding errors grow roughly like
(R/|z|)^k. For D(u,1) = 1 + pow(u,2) from u(0) = 0.5, whose solution
tan(x + atan(1/2)) has a zero at -0.464 inside radius 1.107, Miller's
largest relative coefficient error was 3.4e-12 at N = 24, 4.4e-7 at
N = 40 and 3.0 at N = 60. Binary powering divides by nothing, and stays
within rounding of the naive fold.

A companion recurrence handles the exponential of a series. With
dY(j) = j * Y(j), the coefficients of x*y'(x),

    W(0) = e^Y(0)
    W(k) = 1/k * sum_{j=1}^{k} dY(j) * W(k-j)

so each step is one dot product of dY(1..k) with W(k-1..0), plus the one
multiply that forms dY(k): k + 1 multiplies, N(N+3)/2 to order N.

Miller's recurrence needs Y(0) != 0. When the constant term vanishes the
series is factored as y(x) = x^v * ybar(x) with v the valuation (smallest
index whose coefficient is nonzero); the recurrence runs on ybar and the
result shifts back up by v*m. "Nonzero" means exactly nonzero (0.0 under
float comparison); near-zero leading coefficients are the caller's problem,
because the 1/(k*Y(0)) prefactor amplifies their noise and a hidden
magnitude threshold would silently change answers. Binary powering needs
no valuation: its products carry leading zeros like any other
coefficients.

Each inner sum is one C-level dot product, ``sum(map(operator.mul, ...),
0.0)``, which adds the terms left to right in one double, as a Python loop
would; on CPython 3.11 the coefficients are bitwise those of the loop.
The driver keeps each recurrence's own output newest first, W(k-1), ...,
W(0), growing it by one ``list.insert(0, ...)`` per step, so the dot
product reads two lists that are already in order and no step builds a
reversed copy, which matters most for the short steps. Miller's integer
weights (m+1)*j - k are the float progression m+1-k, 2(m+1)-k, ... built
by repeated addition (``itertools.count``), so they cost O(1) memory
whatever m is. Every partial value is an integer, so the weights are
exact while (m+1)*k <= 2^53; each term is ``weight * (Y(j) * W(k-j))``,
in that order, as in the loop.

Each recurrence is written once, as a one-step kernel
(:func:`miller_step`, :func:`exp_step`, and the square and product steps
of :mod:`dtmseries.series`), and has one driver, the generated executor
of :mod:`dtmseries.lang`: :func:`pow_int` and :func:`exp_series`, like a
DSL run, are programs that it steps one order at a time, finding
Miller's valuation as the orders come, each compiled once per process
(per m for a power). ``_pow_miller`` runs Miller's one-slot program, the
paper's recurrence, for any m >= 2, below the binary cutoff too.

``pow_naive`` and ``exp_naive`` build the same objects by brute force
(repeated convolution; summed Taylor terms of exp) and serve as the
independent oracles for the recurrences.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

from .errors import DomainError, InvalidArgumentError
from . import lang  # circular: lang loads first, imports this module, and is in sys.modules
from .series import OpCount, Series, _div_exact, _int, _series, collect, monomial, mul

__all__ = ["OpCount", "pow_int", "pow_naive", "exp_series", "exp_naive"]

#: Largest exponent raised by binary powering; Miller's recurrence above it.
#: Up to 8 the chain costs 0.25-1.0x Miller's multiplies, except m = 7
#: (1.5x), which stays on the chain for stability (module docstring).
BINARY_POW_MAX = 8
#: Largest exponent :func:`pow_naive` folds, one full convolution per factor.
POW_NAIVE_MAX = 1024


def _int_pow(base: float, m: int, count: OpCount | None = None) -> float:
    # Left-to-right binary powering of a scalar, m >= 1: one multiply per
    # square and per set bit after the leading one, so any m is cheap.
    r = base
    for bit in bin(m)[3:]:
        r *= r
        if bit == "1":
            r *= base
    if count is not None:
        count.multiplies += m.bit_length() + m.bit_count() - 2
    return r


def miller_step(
    y: Sequence[float],
    w_rev: Sequence[float],
    k: int,
    m: int,
    count: OpCount | None = None,
) -> float:
    """One step of Miller's recurrence: W(k) from Y(0..k) and W(k-1), ..., W(0).

    ``y`` is in forward order and ``w_rev`` newest first, so Y(j) pairs
    with ``w_rev[j-1]`` = W(k-j). The inner sum runs j = 1..min(k,
    len(y)-1); terms beyond the length of y would reference undefined
    coefficients and are absent. Requires y[0] != 0 and k >= 1.
    """
    top = len(y) - 1
    jmax = k if k < top else top
    weights = itertools.count(float(m + 1 - k), float(m + 1))
    products = map(operator.mul, y[1:jmax + 1], w_rev)
    acc = sum(map(operator.mul, weights, products), 0.0)
    if count is not None:
        count.multiplies += 2 * jmax + 1
    return acc / (k * y[0])


def exp_step(
    dy: Sequence[float],
    w_rev: Sequence[float],
    k: int,
    count: OpCount | None = None,
) -> float:
    """One step of the exponential recurrence: W(k) from dY(1..k), W(k-1), ..., W(0).

    ``dy`` holds dY(j) = j * Y(j) for j = 1..k, with no entry for j = 0,
    and ``w_rev`` is newest first. The count is k + 1: k for the dot
    product and one for the multiply that formed dY(k) for this step.
    """
    acc = sum(map(operator.mul, dy, w_rev), 0.0)
    if count is not None:
        count.multiplies += k + 1
    return acc / k


def power_chain(m: int) -> tuple[str, ...]:
    """The stages that raise y^m, m >= 1: ("pow",), Miller's recurrence,
    above :data:`BINARY_POW_MAX`, else the left-to-right binary chain.

    For each bit of m after the leading one, "sq" squares the power so
    far, and "mul", for a set bit, multiplies it by y. m = 6 (binary 110)
    is ("sq", "mul", "sq"): y^2, y^3, y^6. m = 1 is the empty chain.
    """
    if m > BINARY_POW_MAX:
        return ("pow",)
    return tuple(op for bit in bin(m)[3:] for op in (("sq", "mul") if bit == "1" else ("sq",)))


def _power_zero(a: Series) -> Series:
    # a^0 is the constant one, except for the zero series.
    if not any(a.coeffs):
        raise DomainError("0^0 undefined: zero series raised to power zero")
    return monomial(0, a.order)


def pow_int(a: Series, m: int) -> tuple[Series, OpCount]:
    """Coefficients of a(x)^m truncated at order(a).

    Runs the stages of :func:`power_chain` as one program, one order per
    step, compiled by :mod:`dtmseries.lang` once per m. m = 0 returns the
    constant-one series (algebraic convention) unless a is identically
    zero, in which case 0^0 raises :class:`DomainError`. m = 1 returns
    ``a`` unchanged; a valuation v with v*m > order(a) gives the zero
    series. Raises :class:`NonFiniteCoefficientError` naming the first
    index at which the power is not finite (coefficient k of a stage reads
    the stage before it up to index k only).
    """
    _series(a, "pow_int")
    if _int(m, "pow_int exponent") < 0:
        raise InvalidArgumentError("pow_int exponent must be a non-negative integer")
    count = OpCount()
    if m == 0:
        return _power_zero(a), count
    if m == 1:  # the empty chain would give an equal copy; return a itself
        return a, count
    return lang._apply("pow", (a.coeffs,), count, m), count


def _pow_miller(a: Series, m: int) -> tuple[Series, OpCount]:
    """a^m by Miller's recurrence for every m >= 2, below the binary cutoff
    too, as the CLI bench runs it; m < 2 is :func:`pow_int`'s."""
    if m < 2:
        return pow_int(a, m)
    count = OpCount()
    return lang._apply("miller", (a.coeffs,), count, m), count


def pow_naive(a: Series, m: int) -> tuple[Series, OpCount]:
    """Oracle power: fold the Cauchy product over m copies of a.

    Performs exactly m - 1 full convolutions, (N+1)(N+2)/2 multiplies each,
    so m above :data:`POW_NAIVE_MAX` raises :class:`InvalidArgumentError`.
    Same 0^0 error contract as :func:`pow_int`. The error on overflow
    names the first index at which any partial product overflows, which
    can come before the power's own: for [1e80, 0, 0, 0, 0, 1e230, 0] and
    m = 4 that is 5, where a^2 overflows, and :func:`pow_int` names 0.
    """
    _series(a, "pow_naive")
    if not 0 <= _int(m, "pow_naive exponent") <= POW_NAIVE_MAX:
        raise InvalidArgumentError(f"pow_naive exponent must be in 0..{POW_NAIVE_MAX}, got {m}")
    count = OpCount()
    if m == 0:
        return _power_zero(a), count
    acc = a
    for _ in range(m - 1):
        acc = mul(acc, a, count)
    return acc, count


def exp_series(a: Series) -> tuple[Series, OpCount]:
    """Coefficients of e^{a(x)} truncated at order(a), via the single-sum recurrence.

    Run by the exp program of :mod:`dtmseries.lang`, compiled once per
    process. Raises :class:`NonFiniteCoefficientError` naming the first
    index that overflows.
    """
    count = OpCount()
    return lang._apply("exp", (_series(a, "exp_series").coeffs,), count), count


def exp_naive(a: Series) -> tuple[Series, OpCount]:
    """Oracle exponential via summed Taylor terms of exp.

    Splits a = a[0] + atil where atil has zero constant term, then returns

        e^{a[0]} * sum_{m=0}^{N} atil^m / m!

    Because atil has valuation >= 1, truncating the outer sum at m = N is
    exact to order N. Without the constant split no finite outer sum would
    be exact when a[0] != 0. The running power atil^m is the same left fold
    of convolutions that :func:`pow_naive` performs; the count returned is
    their multiplies. As an oracle it is outside the rule of
    ``series._FLOAT_EXACT_INT``: up to 170 it keeps 1/m! rounded.
    """
    n = _series(a, "exp_naive").order
    count = OpCount()
    total = [0.0] * (n + 1)
    total[0] = 1.0
    if n >= 1:
        atil = Series((0.0,) + a.coeffs[1:])
        power = atil
        for m in range(1, n + 1):
            if m > 1:
                power = mul(power, atil, count)
            try:
                inv = 1.0 / (f := math.factorial(m))
                terms = [c * inv for c in power.coeffs[m:]]
            except OverflowError:  # m > 170: m! has no float
                terms = [_div_exact(c, f) for c in power.coeffs[m:]]
            total[m:] = map(operator.add, total[m:], terms)
    # The generator evaluates exp, so collect also reports its overflow.
    return collect(math.exp(a.coeffs[0]) * t for t in total), count
