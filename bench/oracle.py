"""Reference answers the benchmark checks every op against.

Nothing here imports ``dtmseries``: each reference is an independent
construction, so a check never calls the code under test.

- Bratu: the closed-form slope gamma = theta * tanh(theta/4), with theta a
  root of theta = sqrt(2 lambda) cosh(theta/4) found by bisection here.
- Series: plain truncated arithmetic. A product is the full Cauchy sum, an
  integer power is a chain of products (never Miller's recurrence), and
  exp(y) runs its own loop of W(k) = 1/k sum j Y(j) W(k-j). Every
  reference coefficient comes with a magnitude bound: the same computation
  carried out on absolute values. A result passes when each coefficient is
  within ``SERIES_RTOL`` of that bound, so an exactly-zero coefficient must
  come out exactly zero and cancellation cannot hide a drift.
"""

from __future__ import annotations

import math
from operator import mul as _fmul

#: Relative tolerance on the Bratu slope gamma.
GAMMA_RTOL = 1e-6
#: Coefficient-wise tolerance, relative to the magnitude bound.
SERIES_RTOL = 1e-9


# ----------------------------------------------------------------------
# Bratu
# ----------------------------------------------------------------------


def _bisect(g, a: float, b: float) -> float:
    ga = g(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm < 0.0) == (ga < 0.0):
            a, ga = mid, gm
        else:
            b = mid
    return 0.5 * (a + b)


def bratu_thetas(lam: float) -> tuple[float, float]:
    """(lower, upper) roots of theta = sqrt(2 lam) cosh(theta/4), lam < lambda_c.

    g(t) = t - s cosh(t/4) is concave with g(0) < 0 and its maximum at
    t* = 4 asinh(4/s); each branch is the single root on one side of t*.
    """
    s = math.sqrt(2.0 * lam)

    def g(t: float) -> float:
        return t - s * math.cosh(t / 4.0)

    peak = 4.0 * math.asinh(4.0 / s)
    if g(peak) <= 0.0:
        raise ValueError(f"lambda={lam} has no Bratu solution")
    hi = 2.0 * peak
    while g(hi) > 0.0:
        hi *= 2.0
    return _bisect(g, 0.0, peak), _bisect(g, peak, hi)


def bratu_gamma(lam: float, branch: str) -> float:
    """Exact initial slope u'(0) of the requested Bratu branch."""
    lower, upper = bratu_thetas(lam)
    theta = lower if branch == "lower" else upper
    return theta * math.tanh(theta / 4.0)


def gamma_ok(got: float, want: float) -> bool:
    return abs(got - want) <= GAMMA_RTOL * abs(want)


# ----------------------------------------------------------------------
# Series references
# ----------------------------------------------------------------------


def _conv_at(a, b, k: int) -> float:
    return sum(map(_fmul, a[: k + 1], reversed(b[: k + 1])))


def conv(a, b) -> list[float]:
    """Full truncated Cauchy product of two equal-length coefficient lists."""
    n = len(a) - 1
    rb = b[::-1]
    return [sum(map(_fmul, a[: k + 1], rb[n - k:])) for k in range(n + 1)]


def _exp_next(y, w, k: int) -> float:
    """W(k) = 1/k sum_{j=1}^{k} (j Y(j)) W(k-j)."""
    return sum(map(_fmul, map(_fmul, range(1, k + 1), y[1 : k + 1]), reversed(w[:k]))) / k


def _abs_or_same(y):
    """|y|, or y itself when no coefficient is negative (then the bound is the value)."""
    return y if min(y) >= 0.0 else [abs(c) for c in y]


class Ref:
    """A reference series with its magnitude bound, compared coefficient-wise."""

    __slots__ = ("value", "bound")

    def __init__(self, value: list[float], bound: list[float]):
        self.value = value
        self.bound = bound

    def first_bad(self, got) -> int | None:
        """Index of the first coefficient outside tolerance (None when all pass).

        A length mismatch reports the shorter length.
        """
        if len(got) != len(self.value):
            return min(len(got), len(self.value))
        for k, (g, r, b) in enumerate(zip(got, self.value, self.bound)):
            if not abs(g - r) <= SERIES_RTOL * b:
                return k
        return None

    def truncated(self, n: int) -> "Ref":
        return Ref(self.value[: n + 1], self.bound[: n + 1])


def ref_mul(a, b) -> Ref:
    aa, ba = _abs_or_same(a), _abs_or_same(b)
    value = conv(a, b)
    return Ref(value, value if aa is a and ba is b else conv(aa, ba))


def ref_powers(y, top: int) -> dict[int, Ref]:
    """y^2 .. y^top, each one more Cauchy product than the last."""
    ya = _abs_or_same(y)
    out = {}
    value, bound = list(y), ya
    for m in range(2, top + 1):
        value = conv(value, y)
        bound = value if ya is y else conv(bound, ya)
        out[m] = Ref(value, bound)
    return out


def ref_exp(y) -> Ref:
    n = len(y) - 1
    ya = _abs_or_same(y)
    w = [math.exp(y[0])] + [0.0] * n
    for k in range(1, n + 1):
        w[k] = _exp_next(y, w, k)
    if ya is y:
        return Ref(w, w)
    wa = [w[0]] + [0.0] * n
    for k in range(1, n + 1):
        wa[k] = _exp_next(ya, wa, k)
    return Ref(w, wa)


# ----------------------------------------------------------------------
# Explicit ODE references
# ----------------------------------------------------------------------
#
# An equation's right-hand side is a nested tuple:
#   ("c", v)  ("x",)  ("u",)  ("d", j)  ("+", a, b)  ("-", a, b)
#   ("*", a, b)  ("s", factor, a)  ("pow", a, m)  ("exp", a)
# The benchmark writes each equation both as DSL text (for the program) and
# as such a tuple (for this reference), so the reference parses nothing.


class _Stream:
    """Coefficients of one subexpression, grown one order at a time.

    ``v`` holds the values and ``b`` the magnitude bound of each.
    """

    __slots__ = ("v", "b")

    def __init__(self):
        self.v: list[float] = []
        self.b: list[float] = []


def _build(expr) -> tuple:
    """Reference node: the expression tuple with its output stream appended."""
    op = expr[0]
    if op in ("+", "-", "*"):
        return (op, _build(expr[1]), _build(expr[2]), _Stream())
    if op == "s":
        return (op, expr[1], _build(expr[2]), _Stream())
    if op == "exp":
        return (op, _build(expr[1]), _Stream())
    if op == "pow":
        # child^m as a chain of products: child*child, then (child^2)*child, ...
        child = _build(expr[1])
        node = child
        for _ in range(expr[2] - 1):
            node = ("*", node, child, _Stream())
        return node
    return expr + (_Stream(),)


def _step(node, k: int, u: list[float], ua: list[float]) -> None:
    op, out = node[0], node[-1]
    if op == "c":
        v = node[1] if k == 0 else 0.0
        out.v.append(v)
        out.b.append(abs(v))
    elif op == "x":
        v = 1.0 if k == 1 else 0.0
        out.v.append(v)
        out.b.append(v)
    elif op == "u":
        out.v.append(u[k])
        out.b.append(ua[k])
    elif op == "d":
        f = math.prod(range(k + 1, k + node[1] + 1))
        out.v.append(f * u[k + node[1]])
        out.b.append(f * ua[k + node[1]])
    elif op in ("+", "-"):
        a, b = node[1][-1], node[2][-1]
        out.v.append(a.v[k] + b.v[k] if op == "+" else a.v[k] - b.v[k])
        out.b.append(a.b[k] + b.b[k])
    elif op == "*":
        a, b = node[1][-1], node[2][-1]
        out.v.append(_conv_at(a.v, b.v, k))
        out.b.append(_conv_at(a.b, b.b, k))
    elif op == "s":
        a = node[2][-1]
        out.v.append(node[1] * a.v[k])
        out.b.append(abs(node[1]) * a.b[k])
    elif op == "exp":
        a = node[1][-1]
        if k == 0:
            out.v.append(math.exp(a.v[0]))
            out.b.append(out.v[0])
        else:
            out.v.append(_exp_next(a.v, out.v, k))
            out.b.append(_exp_next(a.b, out.b, k))
    else:
        raise ValueError(f"unknown reference node {op!r}")


def _children(node):
    op = node[0]
    if op in ("+", "-", "*"):
        return (node[1], node[2])
    if op == "s":
        return (node[2],)
    if op == "exp":
        return (node[1],)
    return ()


def _postorder(node, seen: set, order: list) -> None:
    if id(node) in seen:
        return
    seen.add(id(node))
    for child in _children(node):
        _postorder(child, seen, order)
    order.append(node)


def ref_solve(rhs, lhs_order: int, initial, order: int) -> Ref:
    """Coefficients U(0..order) of D(u, lhs_order) = rhs from U(0..m-1)."""
    m = lhs_order
    root = _build(rhs)
    nodes: list = []
    _postorder(root, set(), nodes)
    u = [float(c) for c in initial] + [0.0] * (order + 1 - m)
    ua = [abs(c) for c in u]
    for k in range(order - m + 1):
        for node in nodes:
            _step(node, k, u, ua)
        denom = math.prod(range(k + 1, k + m + 1))
        u[k + m] = root[-1].v[k] / denom
        ua[k + m] = root[-1].b[k] / denom
    return Ref(u, ua)
