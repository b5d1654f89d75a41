"""The one-dimensional planar Bratu boundary-value problem.

    u'' + lambda * e^u = 0 on [0, 1],   u(0) = u(1) = 0

With U(k) the Taylor coefficients of u about 0, U(0) = 0 and U(1) = gamma
(the unknown initial slope), the equation turns into a recurrence. The
explicit-exponential form is the DSL equation D(u,2) = -lambda * exp(u);
:func:`bratu_plan` lowers it, and stepping the plan carries W = e^u:

    W(0) = e^{U(0)}
    W(k) = (1/k) * sum_{j=1}^{k} j * U(j) * W(k-j)
    U(k+2) = -lambda * W(k) / ((k+1)(k+2))

Substituting W(k) = -(k+1)(k+2) U(k+2) / lambda eliminates W (the
simplified form, :func:`bratu_coeffs`):

    U(2)   = -(lambda/2) * e^{U(0)}
    U(k+2) = 1/(k(k+1)(k+2)) * sum_{j=1}^{k} j (k-j+1)(k-j+2) U(j) U(k-j+2),  k >= 1

The two forms are algebraically identical. Shooting steps the lowered exp
plan; the simplified recurrence is kept as the independent cross-check.
First values: U(2) = -lambda/2, U(3) = -gamma*lambda/6.

gamma is fixed by the x = 1 boundary: the truncated residual
sum_{k=0}^{N} U(k) is driven to zero by shooting. That sum means something
only where the series converges at x = 1. The closed form below has its
nearest singularities at x = 1/2 +- i pi/theta, so the radius about 0 is
sqrt(1/4 + pi^2/theta^2): at most 1 once theta >= 2 pi/sqrt(3), which is
the whole upper branch and the lower branch from LAMBDA_RADIUS = 3.1722 on.
:func:`shoot` refuses those inputs before any run. Elsewhere a climb from
gamma = 0 on the residual and its exact slope finds the residual's first
root or sign change, and a bracketed secant (Pegasus regula falsi)
refines a sign change.

The slope comes from the equation's own symmetries. Translation and the
scaling u(cx) + 2 ln c map solutions to solutions, so u' and x u' + 2
solve the linearised equation v'' = -lambda e^u v (Olver, Applications of
Lie Groups to Differential Equations, 1986, ch. 2), and the combination
with v(0) = 0, v'(0) = 1 is du/dgamma = [gamma (x u' + 2) - 2 u'] /
(2 lambda + gamma^2). Coefficient by coefficient, that is exact for the
truncated residual R_N = sum_{k<=N} U(k) too:

    R_N'(gamma) = [gamma (S_N + 2) - 2 S_{N+1}] / (2 lambda + gamma^2),
    S_M = sum_{k=1}^{M} k U(k),

so one run one order further gives the residual and its slope.
The closed-form reference solution is

    u(x) = -2 ln[ cosh((x - 1/2) theta/2) / cosh(theta/4) ]

where theta solves theta = sqrt(2 lambda) cosh(theta/4). That condition has
zero, one or two roots depending on lambda, which is what gives the problem
its lower/upper solution branches; u'(0) = theta * tanh(theta/4) links each
theta to its shooting slope. The same regula falsi finds theta, with no
grid, on two brackets split at the condition's closed-form maximum; a
comparison with one branch solves only that branch's bracket.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable

from .errors import (
    BranchNotFoundError, DomainError, InvalidArgumentError, NonFiniteCoefficientError
)
from .lang import Equation, Exp, RecurrencePlan, Scale, U, lower, run
from .series import Series, _evaluate_grid, _finite_float, _int, _Record, evaluate

__all__ = [
    "BratuSolution",
    "bratu_plan",
    "bratu_coeffs",
    "boundary_residual",
    "shoot",
    "analytic_theta_roots",
    "analytic_u",
    "compare",
]

#: Supported lambda range, closed; :func:`shoot` and
#: :func:`analytic_theta_roots` reject anything else, NaN included.
LAMBDA_MIN = 1e-3
LAMBDA_MAX = 10.0

#: theta^2 / (2 cosh^2(theta/4)) at theta = 2 pi/sqrt(3), 3.1722028: from this
#: lambda on, as on the whole upper branch, the radius sqrt(1/4 + pi^2/theta^2)
#: of the series about x = 0 is at most 1, and :func:`shoot` refuses. The fold
#: lambda_c = 3.5138 lies above it. Fixed by the closed form, not a knob.
_THETA_RADIUS = 2.0 * math.pi / math.sqrt(3.0)
LAMBDA_RADIUS = _THETA_RADIUS**2 / (2.0 * math.cosh(_THETA_RADIUS / 4.0) ** 2)

#: The climb of :func:`shoot` tries gamma in [0, GAMMA_MAX], first 0, then
#: upward only. Below LAMBDA_RADIUS the lower-branch slope is below 2.62,
#: so the range is generous.
GAMMA_MAX = 50.0
RESIDUAL_TOL = 1e-12
#: The most trials of :func:`_climb` and steps of :func:`_regula_falsi`.
MAX_BISECTIONS = 200

#: Upper end of the theta search. Beyond 60, cosh(theta/4) exceeds 1e6 and
#: no further root exists for lambda >= LAMBDA_MIN.
THETA_MAX = 60.0

_BRANCHES = ("lower", "upper")


def _require_lambda(lam: float) -> None:
    try:
        supported = LAMBDA_MIN <= lam <= LAMBDA_MAX
    except TypeError:  # lam does not compare with floats
        supported = False
    if not supported:
        raise InvalidArgumentError(f"lambda must lie in [{LAMBDA_MIN:g}, {LAMBDA_MAX:g}]")


def _require_order(order: int) -> None:
    if _int(order, "order") < 3:
        raise InvalidArgumentError("order must be at least 3")


def _require_branch(branch: str) -> None:
    if branch not in _BRANCHES:
        raise InvalidArgumentError(f"branch must be 'lower' or 'upper', got {branch!r}")


class BratuSolution(_Record):
    """A shot solution, a record: slope gamma, coefficients, boundary residual, branch."""

    __slots__ = _fields = ("gamma", "coeffs", "residual", "branch")


def bratu_plan(lam: float, order: int) -> RecurrencePlan:
    """The exp form D(u,2) = -lam * exp(u), lowered; run it from (0.0, gamma)."""
    _require_order(order)
    _finite_float(lam, "lambda")  # before -lam, which fails untyped on text or None
    return lower(Equation(2, Scale(-lam, Exp(U()))), order)


def bratu_coeffs(lam: float, gamma: float, order: int) -> Series:
    """Coefficients by the simplified recurrence (exponential eliminated).

    Raises :class:`InvalidArgumentError` for a lambda or gamma that is not
    a finite number, as a run of :func:`bratu_plan` does, and
    :class:`NonFiniteCoefficientError` naming the order that overflows.
    """
    _require_order(order)
    lam = _finite_float(lam, "lambda")
    u = [0.0] * (order + 1)
    u[1] = _finite_float(gamma, "gamma")
    u[2] = -(lam / 2.0) * math.exp(u[0])
    for k in range(1, order - 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (j * (k - j + 1) * (k - j + 2)) * (u[j] * u[k - j + 2])
        u[k + 2] = acc / (k * (k + 1) * (k + 2))
        if not math.isfinite(u[k + 2]):
            raise NonFiniteCoefficientError(k + 2)
    return Series(u)


def boundary_residual(coeffs: Series) -> float:
    """The boundary functional: the value at x = 1 of a run's coefficients.

    Bratu's right boundary u(1) = 0 makes this the shooting residual of the
    :func:`bratu_plan` run from (0.0, gamma).
    """
    return evaluate(coeffs, 1.0)


def _climb(
    f: Callable[[float], tuple[float, float]]
) -> tuple[float, float, float, float] | None:
    """The lower branch's first root of f, by continuation from gamma = 0.

    f(g) returns the residual at g and its slope. The first trial is 0;
    each next one is the root of the inverse cubic Hermite through the
    last two points (g, residual, slope), where one exists and lies in
    (g, GAMMA_MAX], g the last point, and else the Newton step from g.
    Returns (g, r, g, r) for the first point with |r| <= RESIDUAL_TOL, and
    (a, fa, b, fb) for the first pair of consecutive points whose residuals
    have a product <= 0: they differ in sign, or their product underflows.

    On its way to the first root the lower branch's residual rises and
    bends down, so the slope is checked before a sign change is accepted:
    the climb returns None at a slope that is not positive or is larger
    than the last one. (A point within RESIDUAL_TOL is accepted first: on
    a straight residual, such as order 3's, the slope of Newton's landing
    point can exceed the first by rounding.) It also returns None when the
    next trial does not lie in (g, GAMMA_MAX], and after MAX_BISECTIONS
    trials. A trial that overflows raises its error.
    """
    g, last = 0.0, None
    for _ in range(MAX_BISECTIONS):
        r, s = f(g)
        if abs(r) <= RESIDUAL_TOL:
            return g, r, g, r
        if not (0.0 < s and (last is None or s <= last[2])):
            return None
        if last is not None and last[1] * r <= 0.0:
            return last[0], last[1], g, r
        step = g - r / s
        if last is not None and last[1] != r:
            # The Newton step plus the Hermite correction: Newton's divided
            # differences of the inverse, gamma(R), on the nodes r, r, r0, r0.
            g0, r0, s0 = last
            h, d, d0 = r0 - r, 1.0 / s, 1.0 / s0
            q = (g0 - g) / h
            hermite = step + r * r * ((q - d) - (d0 - 2.0 * q + d) * r0 / h) / h
            if g < hermite <= GAMMA_MAX:
                step = hermite
        if not g < step <= GAMMA_MAX:
            return None
        last, g = (g, r, s), step
    return None


def _regula_falsi(
    f: Callable[[float], float], a: float, fa: float, b: float, fb: float, tol: float
) -> tuple[float, float]:
    """Pegasus regula falsi for f on a bracket whose values fa, fb differ in sign.

    Dowell & Jarratt, BIT 12 (1972) 503-508, the same authors' refinement
    of the Illinois method. b is always the newest point. Each step tries
    the secant point x of (a, fa) and (b, fb). When x rounds to b, the root
    is within rounding of b, so the step tries the float beside b towards
    a; when x is otherwise not strictly inside the bracket, the midpoint.
    If f changes sign between b and x, a becomes the old b; otherwise a
    stays and its value is scaled by fb / (fb + f(x)). Then x becomes b.
    Returns (x, f(x)) for the first point, an end included, with
    |f(x)| <= tol; once the bracket cannot shrink, or after MAX_BISECTIONS
    steps, the point of smallest |f| seen.

    At tol = 0 a solve ends by collapsing the bracket onto two adjacent
    floats; the float beside b does that in a step or two where bisecting
    from the far end took up to 45. Anderson-Bjorck's scaling was tried in
    place of Pegasus and rejected: at tol = 0 it stagnates on the steep
    upper bracket of :func:`analytic_theta_roots`, about 110 evaluations
    per solve.
    """
    best = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    if abs(best[1]) <= tol:
        return best
    for _ in range(MAX_BISECTIONS):
        x = b - fb * (b - a) / (fb - fa)
        if x == b:
            x = math.nextafter(b, a)
            if x == a:
                break
        elif not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
            if x == a or x == b:
                break
        fx = f(x)
        if abs(fx) < abs(best[1]):
            best = (x, fx)
        if abs(fx) <= tol:
            return x, fx
        if (fx < 0.0) == (fb < 0.0):
            fa *= fb / (fb + fx)
        else:
            a, fa = b, fb
        b, fb = x, fx
    return best


def shoot(lam: float, order: int, branch: str) -> BratuSolution:
    """Find gamma so the truncated boundary residual vanishes.

    Refuses, with :class:`BranchNotFoundError` before any run, the upper
    branch and every lambda >= LAMBDA_RADIUS (the fold included): there the
    series about x = 0 cannot converge at x = 1, so a root of its truncated
    residual is no answer. Otherwise lowers :func:`bratu_plan` once, one
    order further, and steps it once per trial gamma. A trial's series is
    the run's order-N prefix, bitwise the order-N run because each order
    reads only lower ones; its residual goes through
    :func:`boundary_residual`, and its slope R_N' (module docstring) is one
    sum over the whole run. Each series is kept, so the accepted gamma's is
    not run again. :func:`_climb` stops at the residual's first zero or
    sign change, and :func:`_regula_falsi` refines a sign change to
    |residual| <= RESIDUAL_TOL. Raises :class:`InvalidArgumentError` for a
    branch, order or lambda (outside [LAMBDA_MIN, LAMBDA_MAX]) it does not
    support; :class:`BranchNotFoundError` also when the climb finds no sign
    change, or when the refinement finds no gamma within RESIDUAL_TOL; and
    :class:`NonFiniteCoefficientError` (or :class:`DomainError`, when the
    residual itself overflows) when a gamma the climb tries overflows.
    """
    _require_branch(branch)
    _require_lambda(lam)
    if branch == "upper" or lam >= LAMBDA_RADIUS:
        raise BranchNotFoundError(
            f"no series converges at x = 1 on the {branch} branch at lambda={lam!r}: "
            f"its radius about x = 0 is at most 1 on the upper branch and for "
            f"lambda >= {LAMBDA_RADIUS!r}"
        )
    _require_order(order)
    plan = bratu_plan(lam, order + 1)
    runs: dict[float, Series] = {}

    def trial(g: float) -> tuple[float, float]:
        full = run(plan, (0.0, g)).coeffs
        runs[g] = coeffs = Series._checked(full[:-1])
        s_n = sum(map(operator.mul, range(order + 1), full))
        s_next = s_n + (order + 1) * full[-1]
        return boundary_residual(coeffs), (g * (s_n + 2.0) - 2.0 * s_next) / (2.0 * lam + g * g)

    bracket = _climb(trial)
    if bracket is None:
        raise BranchNotFoundError(
            f"no sign change found on the {branch} branch: the boundary residual "
            f"crosses zero at no gamma its climb tried while its slope stayed positive "
            f"and did not grow, at lambda={lam!r}, order={order}"
        )
    gamma, residual = _regula_falsi(lambda g: trial(g)[0], *bracket, RESIDUAL_TOL)
    if not abs(residual) <= RESIDUAL_TOL:
        raise BranchNotFoundError(
            f"no root within tolerance: the smallest boundary residual found is "
            f"{residual!r} at gamma={gamma!r}, above {RESIDUAL_TOL:g}, at "
            f"lambda={lam!r}, order={order}"
        )
    return BratuSolution(gamma, runs[gamma], residual, branch)


def analytic_theta_roots(lam: float, branch: str | None = None) -> list[float]:
    """Roots of theta = sqrt(2 lambda) cosh(theta/4), the closed form's theta.

    g(t) = t - s cosh(t/4), s = sqrt(2 lambda), is concave with g(0) < 0
    and its maximum at t* = 4 asinh(4/s), so it has no root if g(t*) < 0,
    above the fold, and else one on each side of t*. :func:`_regula_falsi`
    with tol = 0.0 solves [0, t*] for the lower root and [t*, e] for the
    upper, where e = 4 acosh(THETA_MAX/s) bounds every root up to
    THETA_MAX and g(e) is about e - THETA_MAX. On [LAMBDA_MIN, LAMBDA_MAX]
    both t* and e lie below THETA_MAX, so g(e) < 0 and both brackets hold
    their root. Without a branch, returns both roots in ascending order,
    or none; with one, solves only that branch's bracket and returns its
    root alone, the smaller for "lower" and the larger for "upper" (or no
    root). Raises :class:`InvalidArgumentError` for an unknown branch or a
    lambda outside [LAMBDA_MIN, LAMBDA_MAX].
    """
    if branch is not None:
        _require_branch(branch)
    _require_lambda(lam)
    s = math.sqrt(2.0 * lam)

    def g(t: float) -> float:
        return t - s * math.cosh(t / 4.0)

    top = 4.0 * math.asinh(4.0 / s)
    g_top = g(top)
    if g_top < 0.0:
        return []
    roots = []
    if branch != "upper":
        roots.append(_regula_falsi(g, 0.0, -s, top, g_top, 0.0)[0])
    if branch != "lower":
        # A root t <= THETA_MAX has s cosh(t/4) = t <= THETA_MAX.
        end = 4.0 * math.acosh(THETA_MAX / s)
        roots.append(_regula_falsi(g, top, g_top, end, g(end), 0.0)[0])
    return roots


def _analytic_values(theta: float, xs: Iterable[float]) -> list[float]:
    # The one closed-form expression for u; theta/2 and cosh(theta/4) are
    # computed once for all of xs.
    half, c = theta / 2.0, math.cosh(theta / 4.0)
    return [-2.0 * math.log(math.cosh((x - 0.5) * half) / c) for x in xs]


def analytic_u(theta: float, x: float) -> float:
    """Closed-form solution value at x for the branch with parameter theta.

    Raises :class:`InvalidArgumentError` for a theta or x that is not a
    finite number, and :class:`DomainError` when the closed form overflows.
    """
    theta, x = _finite_float(theta, "theta"), _finite_float(x, "x")
    try:
        return _analytic_values(theta, (x,))[0]
    except OverflowError:
        raise DomainError(f"the closed form overflows at theta={theta!r}, x={x!r}") from None


def _comparison(
    lam: float, order: int, grid_points: int, branch: str
) -> tuple[BratuSolution, float, list[tuple[float, float, float, float]]]:
    """Shot solution, reference theta, and rows (x, u_dtm, u_analytic, abs_err)
    on the grid {i/(grid_points-1)}; checks the grid before either solve,
    and shoots first, so an input :func:`shoot` refuses costs no theta solve.
    Every input :func:`shoot` answers lies below the fold, where
    :func:`analytic_theta_roots` has the branch's root.

    The u_dtm column is one blocked Horner pass over the grid,
    :func:`~dtmseries.series._evaluate_grid`, bitwise :func:`evaluate` at
    each x; it raises :class:`DomainError` naming the first x whose value
    overflows.
    """
    if _int(grid_points, "grid") < 2:
        raise InvalidArgumentError("grid must have at least 2 points")
    sol = shoot(lam, order, branch)
    [theta] = analytic_theta_roots(lam, branch)
    xs = [i / (grid_points - 1) for i in range(grid_points)]
    u_refs = _analytic_values(theta, xs)
    u_dtms = _evaluate_grid(sol.coeffs, xs)
    return sol, theta, [(x, u_dtm, u_ref, abs(u_dtm - u_ref))
                        for x, u_dtm, u_ref in zip(xs, u_dtms, u_refs)]


def compare(lam: float, order: int, grid_points: int, branch: str) -> float:
    """Max absolute gap between the shot series and the analytic branch.

    Evaluated on the uniform grid {i/(grid_points-1)}, all points in one
    blocked Horner pass whose values are bitwise :func:`evaluate`'s. Only
    a lower branch below LAMBDA_RADIUS has a series that converges on
    [0, 1]; :func:`shoot` refuses every other input with
    :class:`BranchNotFoundError`.
    """
    return max(row[3] for row in _comparison(lam, order, grid_points, branch)[2])
