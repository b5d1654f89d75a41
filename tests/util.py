"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from dtmseries import (
    Series,
    add,
    derivative_transform,
    exp_series,
    monomial,
    mul,
    pow_int,
    scale,
    sub,
)


def relgap(got: Series, want: Series) -> float:
    """Worst per-coefficient difference, relative to max(|want_k|, 1)."""
    assert got.order == want.order
    return max(
        abs(x - y) / max(abs(y), 1.0) for x, y in zip(got.coeffs, want.coeffs)
    )


def oracle_series(rng: random.Random, order: int = 32) -> Series:
    """Leading coefficient in [0.5, 2], remaining coefficients in [-1, 1]."""
    return Series(
        [rng.uniform(0.5, 2.0)] + [rng.uniform(-1.0, 1.0) for _ in range(order)]
    )


def oracle_series_valuation(rng: random.Random, order: int = 32) -> Series:
    """Same population with a0 = a1 = 0 forced; the pivot coefficient keeps
    the [0.5, 2] band so the 1/(k*Y(0)) prefactor stays conditioned."""
    return Series(
        [0.0, 0.0, rng.uniform(0.5, 2.0)]
        + [rng.uniform(-1.0, 1.0) for _ in range(order - 2)]
    )


def program(equation) -> list[tuple]:
    """``equation``'s slots (kind, param, args), its shape with its float
    literals put back: the next literal is the param of each "const" and
    "scale" slot, in slot order."""
    literals = iter(equation._literals)
    return [(kind, next(literals) if kind in ("const", "scale") else p, args)
            for kind, p, args in equation._shape[1]]


def slot_series(equation, sol: Series) -> list[Series]:
    """Every slot of ``equation``'s program as a whole series of order N - m.

    N is ``sol.order`` and m the equation's lhs_order. Each slot is built
    from ``sol`` by the whole-series operators, with no buffers or steps of
    :func:`~dtmseries.lang.run`: a product or a shift is ``mul``, a square
    ``pow_int(a, 2)``, a pow ``pow_int``, an exp ``exp_series``, and
    D(u,j) is ``derivative_transform`` cut to order N - m. The root, the
    last slot, is then R(0..N-m), and R(k) reads U(0..k+m-1) only. Raises
    :class:`NonFiniteCoefficientError` at the first index at which a slot
    is not finite.
    """
    m = equation.lhs_order
    n = sol.order - m
    slots: list[Series] = []
    for kind, p, args in program(equation):
        a = [slots[i] for i in args]
        if kind == "u":
            s = Series(sol.coeffs[:n + 1])
        elif kind == "const":
            s = Series([p] + [0.0] * n)
        elif kind == "xpow":
            s = monomial(p, n)
        elif kind == "deriv":
            s = Series(derivative_transform(sol, p).coeffs[:n + 1])
        elif kind in ("add", "sub"):
            s = (add if kind == "add" else sub)(a[0], a[1])
        elif kind == "scale":
            s = scale(p, a[0])
        elif kind in ("mul", "shift"):
            s = mul(a[0], a[1])
        elif kind in ("sq", "pow"):
            s = pow_int(a[0], 2 if kind == "sq" else p)[0]
        else:
            assert kind == "exp", kind
            s = exp_series(a[0])[0]
        slots.append(s)
    return slots


def divide(r: float, d: int) -> float:
    """r / d as the recurrence must divide by its integer d > 0: the exact
    quotient rounded once for a finite nonzero r, else r as it is."""
    return float(Fraction(r) / d) if r and math.isfinite(r) else r
