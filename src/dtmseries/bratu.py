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
sum_{k=0}^{N} U(k) is driven to zero by shooting. A walk finds the
branch's first sign change: the lower branch's climbs from gamma = 0 by
inverse quadratic interpolation, and the upper branch's walks the gamma
grid down from its top. A bracketed secant (Pegasus regula falsi) then
refines the bracket.
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
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .errors import (
    BranchNotFoundError, DomainError, InvalidArgumentError, NonFiniteCoefficientError
)
from .lang import Equation, Exp, RecurrencePlan, Scale, U, lower, run
from .series import Series, _evaluate_grid, _finite_float, _int, evaluate

__all__ = [
    "BratuSolution",
    "AnalyticBratu",
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

#: Shooting covers gamma in [0, GAMMA_MAX]: the upper branch's grid walk
#: with step GAMMA_STEP, the lower branch's continuation from 0 and
#: GAMMA_STEP. The upper-branch slope grows with theta, so the range is
#: generous for lambda in [LAMBDA_MIN, LAMBDA_MAX].
GAMMA_MAX = 50.0
GAMMA_STEP = 0.25
RESIDUAL_TOL = 1e-12
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


@dataclass(frozen=True)
class BratuSolution:
    """A shot solution: slope gamma, coefficients, boundary residual, branch."""

    gamma: float
    coeffs: Series
    residual: float
    branch: str


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


def _scan(f: Callable[[float], float]) -> tuple[float, float, float, float] | None:
    """The upper branch's first sign change of f on the gamma grid, as (a, fa, b, fb).

    Walks gamma = i * GAMMA_STEP downward from GAMMA_MAX. Stops at the
    first pair of neighbours whose residuals have a product <= 0: one is
    zero, they differ in sign, or their product underflows, leaving an end
    within RESIDUAL_TOL. Returns None when the walk reaches 0 first.
    """
    prev: tuple[float, float] | None = None
    for i in range(int(round(GAMMA_MAX / GAMMA_STEP)), -1, -1):
        g = i * GAMMA_STEP
        r = f(g)
        if prev is not None and prev[1] * r <= 0.0:
            return prev[0], prev[1], g, r
        prev = (g, r)
    return None


def _next_gamma(gs: list[float], rs: list[float]) -> float:
    """The next trial of :func:`_climb` after the points (gs[i], rs[i]).

    The root of the inverse quadratic through the last three points, in
    Newton's divided-difference form: the secant root of the last two plus
    a correction (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4). The secant root alone where the quadratic is undefined
    (two of the three residuals equal) or its root does not lie in
    (gs[-1], GAMMA_MAX]. Raises ZeroDivisionError when the last two
    residuals are equal.
    """
    (g1, g2), (r1, r2) = gs[-2:], rs[-2:]
    d1 = (g2 - g1) / (r2 - r1)
    secant = g2 - d1 * r2
    if len(gs) > 2 and rs[-3] != r1 and rs[-3] != r2:
        d0 = (g1 - gs[-3]) / (r1 - rs[-3])
        iqi = secant + (d1 - d0) / (r2 - rs[-3]) * r1 * r2
        if g2 < iqi <= GAMMA_MAX:
            return iqi
    return secant


def _climb(f: Callable[[float], float]) -> tuple[float, float, float, float] | None:
    """The lower branch's first sign change of f, by continuation from gamma = 0.

    Evaluates f at 0 and GAMMA_STEP, then at each :func:`_next_gamma`.
    Returns (g, f(g), g, f(g)) for the first point with |f(g)| <=
    RESIDUAL_TOL, and (a, fa, b, fb) for the first pair of consecutive
    points whose residuals have a product <= 0, as :func:`_scan` does.
    Returns None when the next trial does not lie in (b, GAMMA_MAX], b the
    last point, when the last two residuals are equal, and after as many
    trials as the grid has points. A trial that overflows raises its error.
    """
    gs: list[float] = []
    rs: list[float] = []
    g = 0.0
    for _ in range(int(round(GAMMA_MAX / GAMMA_STEP)) + 1):
        r = f(g)
        if abs(r) <= RESIDUAL_TOL:
            return g, r, g, r
        if rs and rs[-1] * r <= 0.0:
            return gs[-1], rs[-1], g, r
        gs.append(g)
        rs.append(r)
        try:
            g = _next_gamma(gs, rs) if len(gs) > 1 else GAMMA_STEP
        except ZeroDivisionError:
            return None
        if not gs[-1] < g <= GAMMA_MAX:
            return None
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

    Lowers :func:`bratu_plan` once and steps it once per trial gamma,
    keeping each run, so the accepted gamma's series is not run again. The
    branch's walk, :func:`_climb` or :func:`_scan`, stops at the residual's
    first sign change (or zero), the smallest-gamma root for "lower" and
    the largest for "upper"; :func:`_regula_falsi` refines it to
    |residual| <= RESIDUAL_TOL. Raises :class:`InvalidArgumentError` for a
    branch, order or lambda (outside [LAMBDA_MIN, LAMBDA_MAX]) it does not
    support; :class:`BranchNotFoundError` before any run above the fold
    lambda_c = 3.5138..., where no theta and so no solution exists (a
    truncated residual may still have a root there), when the walk finds
    no sign change, or when the refinement finds no gamma within
    RESIDUAL_TOL (a truncation that diverges at x = 1 can change sign
    across a pole); and :class:`NonFiniteCoefficientError` (or
    :class:`DomainError`, when the residual itself overflows) when a gamma
    either walk tries overflows.
    """
    _require_branch(branch)
    _require_lambda(lam)
    if _theta_peak(lam)[3] < 0.0:
        raise BranchNotFoundError(f"no solution above the fold: the theta condition has "
                                  f"no root at lambda={lam!r}")
    plan = bratu_plan(lam, order)
    runs: dict[float, Series] = {}

    def trial(g: float) -> float:
        runs[g] = coeffs = run(plan, (0.0, g))
        return boundary_residual(coeffs)

    bracket = _climb(trial) if branch == "lower" else _scan(trial)
    if bracket is None:
        raise BranchNotFoundError(
            f"no sign change found on the {branch} branch: the boundary residual "
            f"crosses zero at no gamma its walk tried, at lambda={lam!r}, order={order}"
        )
    gamma, residual = _regula_falsi(trial, *bracket, RESIDUAL_TOL)
    if not abs(residual) <= RESIDUAL_TOL:
        raise BranchNotFoundError(
            f"no root within tolerance: the smallest boundary residual found is "
            f"{residual!r} at gamma={gamma!r}, above {RESIDUAL_TOL:g}, at "
            f"lambda={lam!r}, order={order}"
        )
    return BratuSolution(
        gamma=gamma,
        coeffs=runs[gamma],
        residual=residual,
        branch=branch,
    )


def _theta_peak(lam: float) -> tuple[Callable[[float], float], float, float, float]:
    """(g, s, t*, g(t*)): the theta condition g(t) = t - s cosh(t/4), s =
    sqrt(2 lambda), and its peak t* = 4 asinh(4/s), capped at THETA_MAX. A
    theta, and so either branch, exists iff g(t*) >= 0: at or below the fold."""
    s = math.sqrt(2.0 * lam)

    def g(t: float) -> float:
        return t - s * math.cosh(t / 4.0)

    top = min(4.0 * math.asinh(4.0 / s), THETA_MAX)
    return g, s, top, g(top)


def analytic_theta_roots(lam: float, branch: str | None = None) -> list[float]:
    """Roots of theta = sqrt(2 lambda) cosh(theta/4) on (0, THETA_MAX].

    g of :func:`_theta_peak` is concave with g(0) < 0 and its maximum at
    t*, so it has no root if g(t*) < 0 and else one on each side of t*.
    :func:`_regula_falsi` with tol = 0.0 solves [0, t*] and, if g(e) < 0,
    [t*, e], where e = 4 acosh(THETA_MAX/s) bounds every root up to
    THETA_MAX, and g(e) is about e - THETA_MAX (e capped at THETA_MAX).
    Without a branch, returns all 0, 1 or 2 roots in ascending order. With
    one, solves only the bracket of the root that
    :meth:`AnalyticBratu.for_branch` takes, the smallest for "lower" and
    the largest for "upper", and returns it alone (or no root). Raises
    :class:`InvalidArgumentError` for an unknown branch or a lambda outside
    [LAMBDA_MIN, LAMBDA_MAX].
    """
    if branch is not None:
        _require_branch(branch)
    _require_lambda(lam)
    g, s, top, g_top = _theta_peak(lam)
    if g_top < 0.0:
        return []
    # A root t <= THETA_MAX has s cosh(t/4) = t <= THETA_MAX. The lower
    # branch never needs the upper bracket, nor g at its far end.
    end = min(4.0 * math.acosh(THETA_MAX / s), THETA_MAX)
    g_end = g(end) if branch != "lower" else 0.0
    roots = []
    if branch != "upper" or g_end >= 0.0:
        roots.append(_regula_falsi(g, 0.0, -s, top, g_top, 0.0)[0])
    if g_end < 0.0:
        roots.append(_regula_falsi(g, top, g_top, end, g_end, 0.0)[0])
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


@dataclass(frozen=True)
class AnalyticBratu:
    """One analytic branch: theta paired with its lambda."""

    theta: float
    lam: float

    @classmethod
    def for_branch(cls, lam: float, branch: str) -> "AnalyticBratu":
        """The smaller theta root for the lower branch, the larger for the upper."""
        roots = analytic_theta_roots(lam, branch)
        if not roots:
            raise BranchNotFoundError(
                f"theta condition has no roots at lambda={lam!r}; "
                "no analytic branch exists"
            )
        return cls(theta=roots[0], lam=lam)

    def u(self, x: float) -> float:
        return analytic_u(self.theta, x)


def _comparison(
    lam: float, order: int, grid_points: int, branch: str
) -> tuple[BratuSolution, AnalyticBratu, list[tuple[float, float, float, float]]]:
    """Shot solution, analytic branch, and rows (x, u_dtm, u_analytic, abs_err)
    on the grid {i/(grid_points-1)}; checks the grid before either solve.

    The u_dtm column is one blocked Horner pass over the grid,
    :func:`~dtmseries.series._evaluate_grid`, bitwise :func:`evaluate` at
    each x; it raises :class:`DomainError` naming the first x whose value
    overflows.
    """
    if _int(grid_points, "grid") < 2:
        raise InvalidArgumentError("grid must have at least 2 points")
    ref = AnalyticBratu.for_branch(lam, branch)
    sol = shoot(lam, order, branch)
    xs = [i / (grid_points - 1) for i in range(grid_points)]
    u_refs = _analytic_values(ref.theta, xs)
    u_dtms = _evaluate_grid(sol.coeffs, xs)
    return sol, ref, [(x, u_dtm, u_ref, abs(u_dtm - u_ref))
                      for x, u_dtm, u_ref in zip(xs, u_dtms, u_refs)]


def compare(lam: float, order: int, grid_points: int, branch: str) -> float:
    """Max absolute gap between the shot series and the analytic branch.

    Evaluated on the uniform grid {i/(grid_points-1)}, all points in one
    blocked Horner pass whose values are bitwise :func:`evaluate`'s. The
    lower-branch series converges on [0, 1] up to lambda = 3.172; above
    that, and on the upper branch, it need not, so the returned error is
    reported without any implied bound there.
    """
    return max(row[3] for row in _comparison(lam, order, grid_points, branch)[2])
