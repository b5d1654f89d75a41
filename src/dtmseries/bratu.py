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
sum_{k=0}^{N} U(k) is driven to zero by shooting: a scan over the gamma
grid that ends at the branch's first sign change, followed by a bracketed
secant (Illinois regula falsi). The closed-form reference solution is

    u(x) = -2 ln[ cosh((x - 1/2) theta/2) / cosh(theta/4) ]

where theta solves theta = sqrt(2 lambda) cosh(theta/4). That condition has
zero, one or two roots depending on lambda, which is what gives the problem
its lower/upper solution branches; u'(0) = theta * tanh(theta/4) links each
theta to its shooting slope. The same regula falsi finds theta, with no
grid, on two brackets split at the condition's closed-form maximum.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import BranchNotFoundError, InvalidArgumentError, NonFiniteCoefficientError
from .lang import Equation, Exp, RecurrencePlan, Scale, U, lower, run
from .series import Series, evaluate

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

#: Shooting scan covers gamma in [0, GAMMA_MAX] with step GAMMA_STEP; the
#: upper-branch slope grows with theta, so the range is generous for
#: lambda in [LAMBDA_MIN, LAMBDA_MAX].
GAMMA_MAX = 50.0
GAMMA_STEP = 0.25
RESIDUAL_TOL = 1e-12
MAX_BISECTIONS = 200

#: Upper end of the theta search. Beyond 60, cosh(theta/4) exceeds 1e6 and
#: no further root exists for lambda >= LAMBDA_MIN.
THETA_MAX = 60.0

_BRANCHES = ("lower", "upper")


def _require_lambda(lam: float) -> None:
    if not LAMBDA_MIN <= lam <= LAMBDA_MAX:
        raise InvalidArgumentError(f"lambda must lie in [{LAMBDA_MIN:g}, {LAMBDA_MAX:g}]")


def _require_order(order: int) -> None:
    if order < 3:
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
    return lower(Equation(2, Scale(-lam, Exp(U()))), order)


def bratu_coeffs(lam: float, gamma: float, order: int) -> Series:
    """Coefficients by the simplified recurrence (exponential eliminated).

    Raises :class:`NonFiniteCoefficientError` naming the order that overflows.
    """
    _require_order(order)
    u = [0.0] * (order + 1)
    u[1] = float(gamma)
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


def _scan(
    f: Callable[[float], float], branch: str
) -> tuple[float, float, float, float] | None:
    """The branch's first zero or sign change of f on the gamma grid, as (a, fa, b, fb).

    Walks gamma = i * GAMMA_STEP upward from 0 for the lower branch and
    downward from GAMMA_MAX for the upper one. Stops at the first grid point
    whose residual is exactly 0 (returned with a == b) or at the first pair
    of neighbours whose residuals differ in sign. Returns None when the walk
    reaches the far end without either.
    """
    steps = int(round(GAMMA_MAX / GAMMA_STEP))
    walk = range(steps + 1) if branch == "lower" else range(steps, -1, -1)
    prev: tuple[float, float] | None = None
    for i in walk:
        g = i * GAMMA_STEP
        r = f(g)
        if r == 0.0:
            return g, 0.0, g, 0.0
        if prev is not None and prev[1] * r < 0.0:
            return prev[0], prev[1], g, r
        prev = (g, r)
    return None


def _regula_falsi(
    f: Callable[[float], float], a: float, fa: float, b: float, fb: float, tol: float
) -> tuple[float, float]:
    """Illinois regula falsi for f on a bracket whose values fa, fb differ in sign.

    Dowell & Jarratt, BIT 11 (1971). Each step tries the secant point and
    falls back to the midpoint when that is not strictly inside the bracket;
    the step keeps the sign change, and an end kept twice in a row has its
    value halved. Returns (x, f(x)) for the first point, an end included,
    with |f(x)| <= tol; once the bracket cannot shrink, or after
    MAX_BISECTIONS steps, the point of smallest |f| seen.
    """
    best = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    if abs(best[1]) <= tol:
        return best
    kept = None
    for _ in range(MAX_BISECTIONS):
        x = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
            if x == a or x == b:
                break
        fx = f(x)
        if abs(fx) < abs(best[1]):
            best = (x, fx)
        if abs(fx) <= tol:
            return x, fx
        if (fx < 0.0) == (fb < 0.0):
            b, fb = x, fx
            if kept == "a":
                fa *= 0.5
            kept = "a"
        else:
            a, fa = x, fx
            if kept == "b":
                fb *= 0.5
            kept = "b"
    return best


def shoot(lam: float, order: int, branch: str) -> BratuSolution:
    """Find gamma so the truncated boundary residual vanishes.

    Lowers :func:`bratu_plan` once, then steps it once for every trial
    gamma and keeps the run, so the accepted gamma's series is not run again.
    Scans the gamma grid [0, GAMMA_MAX] (step GAMMA_STEP) from the branch's
    end, upward for the lower branch and downward for the upper, and stops
    at the first sign change of the residual (or exact zero): the lower
    branch takes the smallest-gamma root, the upper branch the largest. A
    bracketed secant (Illinois regula falsi) then refines it to
    |residual| <= RESIDUAL_TOL. Raises :class:`InvalidArgumentError` for a
    branch, order or lambda (outside [LAMBDA_MIN, LAMBDA_MAX]) it does not
    support, :class:`BranchNotFoundError` when no sign change exists, e.g.
    for lambda beyond the critical value, and
    :class:`NonFiniteCoefficientError` when a gamma the scan visits
    overflows.
    """
    _require_branch(branch)
    _require_lambda(lam)
    plan = bratu_plan(lam, order)
    runs: dict[float, Series] = {}

    def trial(g: float) -> float:
        runs[g] = coeffs = run(plan, (0.0, g))
        return boundary_residual(coeffs)

    bracket = _scan(trial, branch)
    if bracket is None:
        raise BranchNotFoundError(
            f"no sign change found: boundary residual never crosses zero for "
            f"gamma in [0, {GAMMA_MAX:g}] at lambda={lam!r}, order={order}"
        )
    gamma, residual = _regula_falsi(trial, *bracket, RESIDUAL_TOL)
    return BratuSolution(
        gamma=gamma,
        coeffs=runs[gamma],
        residual=residual,
        branch=branch,
    )


def analytic_theta_roots(lam: float) -> list[float]:
    """All roots of theta = sqrt(2 lambda) cosh(theta/4) on (0, THETA_MAX].

    g(t) = t - s cosh(t/4), s = sqrt(2 lambda), is concave with g(0) < 0 and
    its maximum at t* = 4 asinh(4/s), so it has no root if g(t*) < 0 and
    else one on each side of t*. :func:`_regula_falsi` with tol = 0.0 solves
    [0, t*] and, if g(THETA_MAX) < 0, [t*, THETA_MAX] (t* capped at
    THETA_MAX). Returns 0, 1 or 2 roots in ascending order. Raises
    :class:`InvalidArgumentError` for lambda outside [LAMBDA_MIN, LAMBDA_MAX].
    """
    _require_lambda(lam)
    s = math.sqrt(2.0 * lam)

    def g(t: float) -> float:
        return t - s * math.cosh(t / 4.0)

    top = min(4.0 * math.asinh(4.0 / s), THETA_MAX)
    g_top = g(top)
    if g_top < 0.0:
        return []
    roots = [_regula_falsi(g, 0.0, -s, top, g_top, 0.0)[0]]
    g_max = g(THETA_MAX)
    if g_max < 0.0:
        roots.append(_regula_falsi(g, top, g_top, THETA_MAX, g_max, 0.0)[0])
    return roots


def analytic_u(theta: float, x: float) -> float:
    """Closed-form solution value at x for the branch with parameter theta."""
    return -2.0 * math.log(
        math.cosh((x - 0.5) * (theta / 2.0)) / math.cosh(theta / 4.0)
    )


@dataclass(frozen=True)
class AnalyticBratu:
    """One analytic branch: theta paired with its lambda."""

    theta: float
    lam: float

    @classmethod
    def for_branch(cls, lam: float, branch: str) -> "AnalyticBratu":
        """The smaller theta root for the lower branch, the larger for the upper."""
        _require_branch(branch)
        roots = analytic_theta_roots(lam)
        if not roots:
            raise BranchNotFoundError(
                f"theta condition has no roots at lambda={lam!r}; "
                "no analytic branch exists"
            )
        return cls(theta=roots[0] if branch == "lower" else roots[-1], lam=lam)

    def u(self, x: float) -> float:
        return analytic_u(self.theta, x)


def _comparison(
    lam: float, order: int, grid_points: int, branch: str
) -> tuple[BratuSolution, AnalyticBratu, list[tuple[float, float, float, float]]]:
    """Shot solution, analytic branch, and rows (x, u_dtm, u_analytic, abs_err)
    on the grid {i/(grid_points-1)}; checks the grid before either solve."""
    if grid_points < 2:
        raise InvalidArgumentError("grid must have at least 2 points")
    ref = AnalyticBratu.for_branch(lam, branch)
    sol = shoot(lam, order, branch)
    rows = []
    for i in range(grid_points):
        x = i / (grid_points - 1)
        u_dtm = evaluate(sol.coeffs, x)
        u_ref = ref.u(x)
        rows.append((x, u_dtm, u_ref, abs(u_dtm - u_ref)))
    return sol, ref, rows


def compare(lam: float, order: int, grid_points: int, branch: str) -> float:
    """Max absolute gap between the shot series and the analytic branch.

    Evaluated on the uniform grid {i/(grid_points-1)}. The lower-branch
    series converges on [0, 1]; the upper-branch series may not, so the
    returned error is reported without any implied bound there.
    """
    return max(row[3] for row in _comparison(lam, order, grid_points, branch)[2])
