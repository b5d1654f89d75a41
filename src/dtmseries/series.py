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

import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DomainError, InvalidArgumentError, NonFiniteCoefficientError, OrderMismatchError,
    SeriesFormatError,
)
from . import lang  # circular: lang loads first, imports this module, and is in sys.modules

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


def _finite_float(value: object, what: str) -> float:
    """``value``, a number and not text, as a finite float; ``what`` names it in the error."""
    try:
        finite = math.isfinite(value)  # unlike float(), refuses str and bytes
    except OverflowError:
        raise InvalidArgumentError(f"{what} is too large for a float") from None
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{what} must be a number, got {value!r}") from None
    if not finite:
        raise InvalidArgumentError(f"{what} is {float(value)!r}, not a finite float")
    return float(value)


def _int(value: object, what: str) -> int:
    """``value``, which must be an int and not a bool; ``what`` names it in the error."""
    if type(value) is not int:
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    return value


def _series(value: object, what: str) -> Series:
    """``value``, which must be a :class:`Series`; ``what`` names the call in the error."""
    if not isinstance(value, Series):
        raise InvalidArgumentError(f"{what} needs a Series, got {type(value).__name__}")
    return value


#: The rule for every integer factor n > 0 of the transform: up to this bound
#: n is a float exactly, so ``n * x`` and ``x / n`` round once; above it,
#: :func:`_mul_exact` and :func:`_div_exact` round the exact value once, as
#: one int true division over ``x.as_integer_ratio()`` (correctly rounded).
_FLOAT_EXACT_INT = 2**53


def _div_exact(x: float, n: int) -> float:
    """x / n rounded once, for n > _FLOAT_EXACT_INT; zero or non-finite x as is."""
    if not (x and math.isfinite(x)):
        return x
    p, q = x.as_integer_ratio()
    return p / (q * n)


def _mul_exact(n: int, x: float) -> float:
    """n * x rounded once, for n > _FLOAT_EXACT_INT and a finite x; zero x as
    is. Raises ``OverflowError`` when the product has no float."""
    if not x:
        return x
    p, q = x.as_integer_ratio()
    return n * p / q


class Series:
    """Immutable truncated power series about x = 0.

    ``coeffs[k]`` holds the coefficient of x^k; the order N is the highest
    retained index, so there are exactly N + 1 coefficients. Every stored
    coefficient is a finite float; constructing a series from NaN,
    infinity, text or anything else that is not a number raises
    :class:`~dtmseries.errors.InvalidArgumentError`, as does a
    ``coeffs`` that is not iterable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        try:
            cs = list(coeffs)
        except TypeError:
            raise InvalidArgumentError(
                f"series coefficients must be an iterable of numbers, got {coeffs!r}"
            ) from None
        if not cs:
            raise InvalidArgumentError("a series needs at least one coefficient (order >= 0)")
        try:
            finite = all(map(math.isfinite, cs))  # as in _finite_float
        except (OverflowError, TypeError, ValueError):
            finite = False
        if not finite:  # raise, naming the first coefficient that is not a finite number
            for k, c in enumerate(cs):
                _finite_float(c, f"coefficient at index {k}")
        self._coeffs = tuple(map(float, cs))

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
    if _int(order, "order") < 0:
        raise InvalidArgumentError("order must be non-negative")
    return Series([0.0] * (order + 1))


def monomial(m: int, order: int) -> Series:
    """The series of x^m at the given truncation order.

    W(k) is the Kronecker delta at k = m. If m exceeds the order, the
    monomial truncates to the zero series; that is not an error.
    """
    if _int(m, "monomial power") < 0:
        raise InvalidArgumentError("monomial power must be non-negative")
    if _int(order, "order") < 0:
        raise InvalidArgumentError("order must be non-negative")
    cs = [0.0] * (order + 1)
    if m <= order:
        cs[m] = 1.0
    return Series._checked(cs)


def _require_same_order(a: Series, b: Series, op: str) -> None:
    if _series(a, op).order != _series(b, op).order:
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
    """Scalar multiple: W(k) = factor * Y(k).

    Raises :class:`~dtmseries.errors.InvalidArgumentError` for a factor
    that is not a finite number.
    """
    factor = _finite_float(factor, "factor")
    return collect(factor * c for c in _series(a, "scale").coeffs)


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


def mul(a: Series, b: Series, count: OpCount | None = None) -> Series:
    """Cauchy product truncated at the common order.

    W(k) = sum_{l=0}^{k} Y(l) * Z(k-l), run by the product program of
    :mod:`dtmseries.lang`, compiled once per process. The full convolution
    performs exactly (N+1)(N+2)/2 scalar multiplies, ``a is b`` included,
    accumulated into ``count`` when one is supplied. Raises
    :class:`~dtmseries.errors.NonFiniteCoefficientError` on overflow.
    """
    _require_same_order(a, b, "mul")
    return lang._apply("mul", (a.coeffs, b.coeffs), count)


def derivative_transform(a: Series, m: int) -> Series:
    """Coefficients of the m-th derivative: W(k) = (k+1)...(k+m) * Y(k+m).

    The result has order N - m. The factorial ratio (k+m)!/k! is the exact
    integer ``math.perm(k + m, m)``, so large orders do not overflow: each
    product is the exact one rounded once (``_FLOAT_EXACT_INT``), and it
    raises :class:`~dtmseries.errors.NonFiniteCoefficientError` only if
    that has no float.
    """
    if _int(m, "derivative order") < 0:
        raise InvalidArgumentError("derivative order must be non-negative")
    if m > _series(a, "derivative_transform").order:
        raise OrderMismatchError(
            f"derivative order {m} exceeds series order {a.order}"
        )
    if m == 0:
        return a
    return collect(f * c if (f := math.perm(k + m, m)) <= _FLOAT_EXACT_INT else _mul_exact(f, c)
                   for k, c in enumerate(a.coeffs[m:]))


def evaluate(a: Series, x: float) -> float:
    """Horner evaluation of the truncated series at x.

    Raises :class:`~dtmseries.errors.InvalidArgumentError` when ``a`` is
    not a Series or x is not a finite number, and
    :class:`~dtmseries.errors.DomainError` naming x when the value
    overflows. The checks run only after the loop fails or its value is
    not finite, so a finite value costs one ``isfinite``.
    """
    r = 0.0
    try:
        for c in reversed(a.coeffs):
            r = r * x + c
        if math.isfinite(r):  # a complex x raises TypeError here
            return r
    except (AttributeError, TypeError, OverflowError):
        _series(a, "evaluate")
    _finite_float(x, "x")
    raise DomainError(f"the series value at x={x!r} overflows")


#: Coefficients per block of :func:`_evaluate_grid`. On 101 points at
#: orders 10 to 200 (CPython 3.11, 2-vCPU Xeon), blocks of 16 ran in
#: 0.60-0.77 of the time of :func:`evaluate` at each point, blocks of 8 in
#: 0.69-0.86.
_BLOCK = 16


def _evaluate_grid(a: Series, xs: Sequence[float]) -> list[float]:
    """``[evaluate(a, x) for x in xs]``, bitwise, in one blocked Horner pass.

    The reversed coefficients, padded on top with 0.0 to a multiple of
    _BLOCK, are walked from the top down a block at a time: one list
    comprehension over the points per block, its steps r * x + c written
    out. A pad step keeps r at 0.0, the start of :func:`evaluate` (0.0 * x
    + 0.0 is 0.0 for a finite x), so each point takes the same operations
    in the same order as :func:`evaluate`, and each value is bitwise its
    value, signed zeros included. For a single point the plain loop of
    :func:`evaluate` is 2.4-4.5 times faster. ``a`` must be a Series and
    ``xs`` finite floats; neither is checked. Raises
    :class:`~dtmseries.errors.DomainError` naming the first x whose value
    is not finite, as :func:`evaluate` does.
    """
    cs = a.coeffs
    rev = [0.0] * (-len(cs) % _BLOCK)
    rev += reversed(cs)
    rs = [0.0] * len(xs)
    for c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15 in zip(
            *[iter(rev)] * _BLOCK):
        rs = [(((((((((((((((r * x + c0) * x + c1) * x + c2) * x + c3) * x + c4) * x + c5)
                       * x + c6) * x + c7) * x + c8) * x + c9) * x + c10) * x + c11)
                  * x + c12) * x + c13) * x + c14) * x + c15
              for r, x in zip(rs, xs)]
    if not all(map(math.isfinite, rs)):
        x = next(x for x, r in zip(xs, rs) if not math.isfinite(r))
        raise DomainError(f"the series value at x={x!r} overflows")
    return rs


# ----------------------------------------------------------------------
# Series file format (used by the CLI)
# ----------------------------------------------------------------------
#
# JSON object form:  {"order": N, "coeffs": [c0, c1, ..., cN]}
# CSV form:          one "k,coefficient" line per index, k = 0..N contiguous.


def _coeffs_from_json(obj: object) -> list:
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
    return coeffs


def _coeffs_from_csv(text: str) -> list[float]:
    coeffs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            index, value = line.split(",")  # ValueError unless two fields
            k, c = int(index), float(value)
        except ValueError:
            raise SeriesFormatError(
                f"line {lineno}: expected 'k,coefficient', got {raw!r}"
            ) from None
        if k != len(coeffs):
            raise SeriesFormatError(
                f"line {lineno}: index {k} out of order; indices must run 0..N contiguously"
            )
        coeffs.append(c)
    return coeffs


def load_series(text: str) -> Series:
    """Parse a series from its file format (JSON object or CSV lines), a str."""
    if not isinstance(text, str):
        raise InvalidArgumentError(f"series text must be a str, got {type(text).__name__}")
    stripped = text.lstrip()
    if not stripped:  # else, as line separators are whitespace, a line is not blank
        raise SeriesFormatError("empty series input")
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SeriesFormatError(f"bad series JSON: {exc}") from None
        coeffs = _coeffs_from_json(obj)
    else:
        coeffs = _coeffs_from_csv(text)
    try:
        return Series(coeffs)
    except ValueError as exc:
        raise SeriesFormatError(str(exc)) from None


def format_series(a: Series) -> str:
    """The JSON file format as a string; floats print shortest round-trip."""
    return json.dumps({"order": _series(a, "format_series").order, "coeffs": list(a.coeffs)})
