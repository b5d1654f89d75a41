"""Truncated power series and the linear coefficient-transform operators.

A function w(x) analytic at x = 0 is represented by its Taylor coefficients
W(k) = w^(k)(0)/k!, truncated at a fixed order N:

    w(x) ~ sum_{k=0}^{N} W(k) * x^k

All operations here are exact modulo x^(N+1) and follow the classical
operator table of the differential transformation method:

    w = y + z        ->  W(k) = Y(k) + Z(k)
    w = lambda * y   ->  W(k) = lambda * Y(k)
    w = d^m y / dx^m ->  W(k) = (k+1)(k+2)...(k+m) * Y(k+m)
    w = y * z        ->  W(k) = sum_{l=0}^{k} Y(l) * Z(k-l)
    w = y * y        ->  W(k) = 2 sum_{l<k/2} Y(l) * Y(k-l) + [k even] Y(k/2)^2
    w = x^m          ->  W(k) = 1 if k == m else 0

Binary operations require equal truncation orders and raise
:class:`~dtmseries.errors.OrderMismatchError` otherwise: mixing orders
silently is the classic way series code goes wrong. Every operator raises
:class:`~dtmseries.errors.NonFiniteCoefficientError`, naming the index,
when a coefficient overflows.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    InvalidArgumentError, NonFiniteCoefficientError, OrderMismatchError, SeriesFormatError
)

__all__ = [
    "Series",
    "OpCount",
    "zeros",
    "monomial",
    "add",
    "sub",
    "scale",
    "mul",
    "derivative_transform",
    "evaluate",
    "load_series",
    "format_series",
]


@dataclass
class OpCount:
    """Tally of scalar (coefficient-level) multiplications performed.

    Counters are call-local: operations either return a fresh instance or
    accumulate into one passed by the caller. There is no global state.
    Divisions and integer index arithmetic are not tallied.
    """

    multiplies: int = 0


def _finite_float(value: float, what: str) -> float:
    """``value`` as a float, which must be finite; ``what`` names it in the error."""
    try:
        f = float(value)
    except OverflowError:
        raise InvalidArgumentError(f"{what} is too large for a float") from None
    if not math.isfinite(f):
        raise InvalidArgumentError(f"{what} is {f!r}, not a finite float")
    return f


def _div_exact(x: float, n: int) -> float:
    """x / n correctly rounded where n > 0 has no float; zero or non-finite x as is."""
    return float(Fraction(x) / n) if x and math.isfinite(x) else x


class Series:
    """Immutable truncated power series about x = 0.

    ``coeffs[k]`` holds the coefficient of x^k; the order N is the highest
    retained index, so there are exactly N + 1 coefficients. Every stored
    coefficient is a finite float; constructing a series from NaN or
    infinity raises :class:`~dtmseries.errors.InvalidArgumentError`.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        cs = list(coeffs)
        if not cs:
            raise InvalidArgumentError("a series needs at least one coefficient (order >= 0)")
        try:
            floats = tuple(map(float, cs))
            finite = all(map(math.isfinite, floats))
        except OverflowError:
            finite = False
        if not finite:  # raise, naming the first coefficient that is not a finite float
            for k, c in enumerate(cs):
                _finite_float(c, f"coefficient at index {k}")
        self._coeffs = floats

    @classmethod
    def _checked(cls, coeffs: list[float]) -> Series:
        """A series of floats the caller has already checked to be finite."""
        s = object.__new__(cls)
        s._coeffs = tuple(coeffs)
        return s

    @property
    def coeffs(self) -> tuple[float, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        """Highest retained index N."""
        return len(self._coeffs) - 1

    def __len__(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, k: int) -> float:
        return self._coeffs[k]

    def __iter__(self):
        return iter(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Series({list(self._coeffs)!r})"


def zeros(order: int) -> Series:
    """The zero series of the given order."""
    if order < 0:
        raise InvalidArgumentError("order must be non-negative")
    return Series([0.0] * (order + 1))


def monomial(m: int, order: int) -> Series:
    """The series of x^m at the given truncation order.

    W(k) is the Kronecker delta at k = m. If m exceeds the order, the
    monomial truncates to the zero series; that is not an error.
    """
    if m < 0:
        raise InvalidArgumentError("monomial power must be non-negative")
    if order < 0:
        raise InvalidArgumentError("order must be non-negative")
    cs = [0.0] * (order + 1)
    if m <= order:
        cs[m] = 1.0
    return Series._checked(cs)


def _require_same_order(a: Series, b: Series, op: str) -> None:
    if a.order != b.order:
        raise OrderMismatchError(
            f"{op} requires equal truncation orders, got {a.order} and {b.order}; "
            "align orders explicitly first"
        )


def add(a: Series, b: Series) -> Series:
    """Pointwise sum: W(k) = Y(k) + Z(k)."""
    _require_same_order(a, b, "add")
    return collect(x + y for x, y in zip(a.coeffs, b.coeffs))


def sub(a: Series, b: Series) -> Series:
    """Pointwise difference: W(k) = Y(k) - Z(k)."""
    _require_same_order(a, b, "sub")
    return collect(x - y for x, y in zip(a.coeffs, b.coeffs))


def scale(factor: float, a: Series) -> Series:
    """Scalar multiple: W(k) = factor * Y(k)."""
    return collect(factor * c for c in a.coeffs)


def collect(values: Iterable[float]) -> Series:
    """The series of ``values``, in order, checked once for overflow.

    Raises :class:`~dtmseries.errors.NonFiniteCoefficientError` naming the
    index of the first value that is not finite, or that raised
    ``OverflowError`` while being produced.
    """
    out: list[float] = []
    try:
        for c in values:
            if not math.isfinite(c):
                raise NonFiniteCoefficientError(len(out))
            out.append(c)
    except OverflowError:
        raise NonFiniteCoefficientError(len(out)) from None
    return Series._checked(out)


def mul_step(
    a: Sequence[float], b_rev: Sequence[float], k: int, count: OpCount | None = None
) -> float:
    """One Cauchy coefficient W(k) = sum_{l=0}^{k} A(l) * B(k-l); k + 1 multiplies.

    ``b_rev`` holds B(k), ..., B(0), newest first, so A(l) pairs with
    ``b_rev[l]``. The inner sum is one C-level dot product, added left to
    right from 0.0; it stops with B(0), so ``a`` may be longer than k + 1.
    """
    if count is not None:
        count.multiplies += k + 1
    return sum(map(operator.mul, a, b_rev), 0.0)


def mul_steps(
    a: Sequence[float], b: Sequence[float], count: OpCount | None = None
) -> Iterator[float]:
    """Yield W(0), W(1), ... of the Cauchy product a * b; step k reads a[0..k], b[0..k].

    The stepper keeps b's coefficients newest first, one insertion at the
    front per step, so either operand may be a buffer that grows by one
    coefficient per step.
    """
    b_rev: list[float] = []
    for k in itertools.count():
        b_rev.insert(0, b[k])
        yield mul_step(a, b_rev, k, count)


def sq_step(
    a: Sequence[float], a_rev: Sequence[float], k: int, count: OpCount | None = None
) -> float:
    """One coefficient of the Cauchy square, k // 2 + 1 multiplies:

        W(k) = 2 * sum_{j < k/2} A(j) * A(k-j) + [k even] * A(k/2)^2

    ``a_rev`` holds A(k), ..., A(0), newest first, so A(j) pairs with
    ``a_rev[j]`` = A(k-j). The sum is one C-level dot product over the
    first ceil(k/2) pairs, added left to right from 0.0, and doubled by an
    exact addition, which is not counted as a multiply. Each product of the
    square is formed once, where the Cauchy sum forms each twice.
    """
    half, middle = divmod(k + 1, 2)
    acc = sum(map(operator.mul, a[:half], a_rev), 0.0)
    acc += acc
    if middle:
        acc += a[half] * a[half]
    if count is not None:
        count.multiplies += half + middle
    return acc


def sq_steps(a: Sequence[float], count: OpCount | None = None) -> Iterator[float]:
    """Yield W(0), W(1), ... of the square a * a; step k reads a[0..k].

    The stepper keeps a's coefficients newest first, as :func:`mul_steps`
    keeps b's, so ``a`` may be a buffer that grows by one coefficient per
    step. To order N it costs floor((N+2)^2 / 4) multiplies, against
    (N+1)(N+2)/2 for :func:`mul_steps`.
    """
    a_rev: list[float] = []
    for k in itertools.count():
        a_rev.insert(0, a[k])
        yield sq_step(a, a_rev, k, count)


def mul(a: Series, b: Series, count: OpCount | None = None) -> Series:
    """Cauchy product truncated at the common order.

    W(k) = sum_{l=0}^{k} Y(l) * Z(k-l). The full convolution performs
    exactly (N+1)(N+2)/2 scalar multiplies, accumulated into ``count``
    when one is supplied. Raises
    :class:`~dtmseries.errors.NonFiniteCoefficientError` on overflow.
    """
    _require_same_order(a, b, "mul")
    return collect(itertools.islice(mul_steps(a.coeffs, b.coeffs, count), len(a)))


def derivative_transform(a: Series, m: int) -> Series:
    """Coefficients of the m-th derivative: W(k) = (k+1)...(k+m) * Y(k+m).

    The result has order N - m. The factorial ratio (k+m)!/k! is the exact
    integer ``math.perm(k + m, m)``, so large orders do not overflow.
    """
    if m < 0:
        raise InvalidArgumentError("derivative order must be non-negative")
    if m > a.order:
        raise OrderMismatchError(
            f"derivative order {m} exceeds series order {a.order}"
        )
    if m == 0:
        return a
    cs = a.coeffs
    return collect(math.perm(k + m, m) * cs[k + m] for k in range(a.order - m + 1))


def evaluate(a: Series, x: float) -> float:
    """Horner evaluation of the truncated series at x."""
    r = 0.0
    for c in reversed(a.coeffs):
        r = r * x + c
    return r


# ----------------------------------------------------------------------
# Series file format (used by the CLI)
# ----------------------------------------------------------------------
#
# JSON object form:  {"order": N, "coeffs": [c0, c1, ..., cN]}
# CSV form:          one "k,coefficient" line per index, k = 0..N contiguous.


def _series_from_json(obj: object) -> Series:
    if not isinstance(obj, dict):
        raise SeriesFormatError("series JSON must be an object")
    try:
        order = obj["order"]
        coeffs = obj["coeffs"]
    except KeyError as exc:
        raise SeriesFormatError(f"series JSON is missing key {exc}") from None
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise SeriesFormatError("series order must be a non-negative integer")
    if not isinstance(coeffs, list) or len(coeffs) != order + 1:
        raise SeriesFormatError(
            f"series of order {order} must carry exactly {order + 1} coefficients"
        )
    for c in coeffs:
        if not isinstance(c, (int, float)) or isinstance(c, bool):
            raise SeriesFormatError(f"coefficient {c!r} is not a number")
    try:
        return Series(coeffs)
    except ValueError as exc:
        raise SeriesFormatError(str(exc)) from None


def _series_from_csv(text: str) -> Series:
    coeffs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SeriesFormatError(
                f"line {lineno}: expected 'k,coefficient', got {raw!r}"
            )
        try:
            k = int(parts[0])
            c = float(parts[1])
        except ValueError:
            raise SeriesFormatError(
                f"line {lineno}: expected 'k,coefficient', got {raw!r}"
            ) from None
        if k != len(coeffs):
            raise SeriesFormatError(
                f"line {lineno}: index {k} out of order; indices must run 0..N contiguously"
            )
        coeffs.append(c)
    if not coeffs:
        raise SeriesFormatError("empty series input")
    try:
        return Series(coeffs)
    except ValueError as exc:
        raise SeriesFormatError(str(exc)) from None


def load_series(text: str) -> Series:
    """Parse a series from its file format (JSON object or CSV lines)."""
    stripped = text.lstrip()
    if not stripped:
        raise SeriesFormatError("empty series input")
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SeriesFormatError(f"bad series JSON: {exc}") from None
        return _series_from_json(obj)
    return _series_from_csv(text)


def format_series(a: Series) -> str:
    """The JSON file format as a string; floats print shortest round-trip."""
    return json.dumps({"order": a.order, "coeffs": list(a.coeffs)})
