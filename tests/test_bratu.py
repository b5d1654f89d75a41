"""Bratu problem: recurrences, shooting, and the analytic reference."""

import math

import pytest

import dtmseries.bratu as bratu_module
from dtmseries import (
    BranchNotFoundError,
    InvalidArgumentError,
    NonFiniteCoefficientError,
    analytic_theta_roots,
    analytic_u,
    boundary_residual,
    bratu_coeffs,
    bratu_plan,
    compare,
    evaluate,
    run,
    shoot,
)
from util import relgap

# Frozen independently (40-digit Newton iterations on the theta condition).
THETA_LOWER_L1 = 1.5171645990507544
THETA_UPPER_L1 = 10.938702772122107
THETA_LOWER_L2 = 2.357551053877402
THETA_UPPER_L2 = 8.507199570713026
LAMBDA_CRITICAL = 3.5138307191251612


class TestCoefficients:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 3.0])
    def test_first_values(self, lam, gamma):
        for coeffs in (bratu_coeffs(lam, gamma, 3), run(bratu_plan(lam, 3), (0.0, gamma))):
            assert coeffs[0] == 0.0
            assert coeffs[1] == gamma
            assert abs(coeffs[2] - (-lam / 2.0)) <= 1e-15 * abs(lam / 2.0)
            assert abs(coeffs[3] - (-gamma * lam / 6.0)) <= 1e-15 * abs(gamma * lam / 6.0)

    def test_zero_lambda_gives_straight_line(self):
        coeffs = bratu_coeffs(0.0, 2.0, 8)
        assert coeffs[1] == 2.0
        assert all(c == 0.0 for k, c in enumerate(coeffs) if k != 1)

    def test_fourth_coefficient(self):
        # Hand-stepping the simplified recurrence at k=2 gives
        # U(4) = lam*(lam - gamma^2)/24; the exp path must agree.
        lam, gamma = 1.3, 0.7
        want = lam * (lam - gamma * gamma) / 24.0
        assert abs(bratu_coeffs(lam, gamma, 4)[4] - want) <= 1e-13 * abs(want)
        assert abs(run(bratu_plan(lam, 4), (0.0, gamma))[4] - want) <= 1e-13 * abs(want)

    def test_exp_path_starts_from_unit_weight(self):
        # W(0) = e^{U(0)} = 1 exactly when U(0) = 0, so U(2) = -lam/2 exactly.
        assert run(bratu_plan(2.0, 3), (0.0, 3.0))[2] == -1.0

    @pytest.mark.parametrize("lam,gamma", [(1.0, 0.5), (2.0, 3.0)])
    def test_paths_agree(self, lam, gamma):
        assert relgap(
            bratu_coeffs(lam, gamma, 30), run(bratu_plan(lam, 30), (0.0, gamma))
        ) <= 1e-12

    @pytest.mark.parametrize("lam,gamma", [(0.5, 0.1), (1.0, 1.0), (2.0, 0.25)])
    def test_paths_agree_at_order_sixty(self, lam, gamma):
        assert relgap(
            bratu_coeffs(lam, gamma, 60), run(bratu_plan(lam, 60), (0.0, gamma))
        ) <= 1e-12

    def test_overflow_names_the_order(self):
        # gamma = 1e200 makes U(4) overflow in both forms.
        for coeffs in (
            lambda: bratu_coeffs(1.0, 1e200, 30),
            lambda: run(bratu_plan(1.0, 30), (0.0, 1e200)),
        ):
            with pytest.raises(NonFiniteCoefficientError) as err:
                coeffs()
            assert err.value.order == 4

    def test_order_validation(self):
        with pytest.raises(ValueError):
            bratu_coeffs(1.0, 0.5, 2)
        with pytest.raises(ValueError):
            run(bratu_plan(1.0, 2), (0.0, 0.5))
        with pytest.raises(ValueError):
            bratu_plan(1.0, 2)


class TestPlan:
    def test_reuse_matches_fresh_plans(self):
        # shoot steps one plan for every trial gamma, an overflowing one
        # included; each run must not see the state of the one before.
        plan = bratu_plan(1.3, 30)
        assert run(plan, (0.0, 0.5)) == run(bratu_plan(1.3, 30), (0.0, 0.5))
        assert run(plan, (0.0, 2.0)) == run(bratu_plan(1.3, 30), (0.0, 2.0))
        with pytest.raises(NonFiniteCoefficientError):
            run(plan, (0.0, 1e200))
        assert run(plan, (0.0, 0.5)) == run(bratu_plan(1.3, 30), (0.0, 0.5))


class TestBoundaryResidual:
    def test_no_lift_is_negative(self):
        assert boundary_residual(run(bratu_plan(1.0, 30), (0.0, 0.0))) < 0.0

    def test_zero_lambda_residual_is_gamma(self):
        plan = bratu_plan(0.0, 12)
        for gamma in (0.0, 0.5, 2.5):
            assert boundary_residual(run(plan, (0.0, gamma))) == gamma

    def test_sign_change_within_ten(self):
        # Establishes the shooting bracket for lambda = 1.
        plan = bratu_plan(1.0, 30)
        previous = boundary_residual(run(plan, (0.0, 0.0)))
        assert previous < 0.0
        crossed = False
        g = 0.25
        while g <= 10.0:
            current = boundary_residual(run(plan, (0.0, g)))
            if previous * current < 0.0:
                crossed = True
                break
            previous = current
            g += 0.25
        assert crossed


def _grid_brackets(lam, order):
    """Oracle: every zero or sign change of the residual on the whole gamma
    grid, in ascending order; the lower branch owns the first."""
    plan = bratu_plan(lam, order)
    step = 0.25
    steps = int(round(bratu_module.GAMMA_MAX / step))
    gammas = [i * step for i in range(steps + 1)]
    residuals = [boundary_residual(run(plan, (0.0, g))) for g in gammas]
    brackets = []
    for i, r in enumerate(residuals):
        if r == 0.0:
            brackets.append((gammas[i], gammas[i]))
        elif i < steps and r * residuals[i + 1] < 0.0:
            brackets.append((gammas[i], gammas[i + 1]))
    return brackets


def _shoot_trial(lam, order, monkeypatch):
    """The trial function shoot(lam, order, "lower") hands its climb."""
    trials = []
    monkeypatch.setattr(bratu_module, "_climb", trials.append)
    with pytest.raises(BranchNotFoundError):
        shoot(lam, order, "lower")
    monkeypatch.undo()
    return trials[0]


class TestResidualSlope:
    @pytest.mark.parametrize("lam", [0.05, 1.0, 2.4, 3.1])
    def test_order_three_slope_is_constant(self, lam, monkeypatch):
        # R_3 = gamma (1 - lam/6) - lam/2, a line in gamma.
        trial = _shoot_trial(lam, 3, monkeypatch)
        for gamma in (0.0, 0.3, 1.0, 2.5, 7.0):
            residual, slope = trial(gamma)
            assert slope == pytest.approx(1.0 - lam / 6.0, rel=1e-14, abs=1e-15)
            assert residual == pytest.approx(gamma * (1.0 - lam / 6.0) - lam / 2.0,
                                             rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("order", [10, 30, 60])
    @pytest.mark.parametrize("lam", [0.05, 1.0, 1.75, 2.4])
    def test_slope_matches_central_differences(self, lam, order, monkeypatch):
        trial = _shoot_trial(lam, order, monkeypatch)
        h = 1e-5
        for gamma in (0.0, 0.5, 1.0, 1.6, 2.5):
            slope = trial(gamma)[1]
            central = (trial(gamma + h)[0] - trial(gamma - h)[0]) / (2.0 * h)
            assert abs(slope - central) <= 1e-7 * abs(slope)

    @pytest.mark.parametrize("lam", [0.05, 1.0, 2.4, 3.1])
    def test_order_three_root_despite_a_rounded_slope(self, lam):
        # Newton from 0 lands on the root of the line R_3; the slope there
        # may exceed the first by rounding, and the root is still taken.
        sol = shoot(lam, 3, "lower")
        assert sol.gamma == pytest.approx((lam / 2.0) / (1.0 - lam / 6.0), rel=1e-12)

    @pytest.mark.parametrize("lam, order", [(0.05, 30), (1.0, 30), (2.4, 60), (1.0, 600)])
    def test_accepted_series_is_the_order_n_run(self, lam, order):
        # The trial runs one order further; its series is the order-N prefix.
        sol = shoot(lam, order, "lower")
        assert sol.coeffs.order == order
        assert sol.coeffs == run(bratu_plan(lam, order), (0.0, sol.gamma))
        assert sol.residual == boundary_residual(sol.coeffs)


class TestShooting:
    def test_lower_branch_converges(self):
        sol = shoot(1.0, 30, "lower")
        assert sol.branch == "lower"
        assert abs(sol.residual) <= 1e-12
        assert sol.coeffs[0] == 0.0
        assert sol.coeffs[1] == sol.gamma
        want = THETA_LOWER_L1 * math.tanh(THETA_LOWER_L1 / 4.0)
        assert abs(sol.gamma - want) <= 1e-6

    @pytest.mark.parametrize("lam,order", [(0.1, 30), (1.0, 30), (1.7, 30), (2.3, 60)])
    def test_series_matches_simplified_form(self, lam, order):
        sol = shoot(lam, order, "lower")
        assert relgap(sol.coeffs, bratu_coeffs(lam, sol.gamma, order)) <= 1e-12

    def test_small_lambda_limit(self):
        sol = shoot(1e-3, 20, "lower")
        assert 0.0 < sol.gamma < 0.01
        assert abs(sol.residual) <= 1e-12

    def test_upper_branch_takes_largest_root(self):
        # The upper branch has theta >= 4.80, so the radius of its series
        # about x = 0 is below 1: at N = 10 its residual's root had
        # max_abs_err 2.67. shoot refuses it rather than return it.
        with pytest.raises(BranchNotFoundError, match="no series converges at x = 1 on the upper"):
            shoot(1.0, 10, "upper")

    def test_non_root_is_a_typed_error(self):
        # The N = 30 truncated residual changes sign near gamma = 40.63
        # across a pole (the true slope is 10.847); no gamma is run.
        with pytest.raises(BranchNotFoundError) as info:
            shoot(1.0, 30, "upper")
        message = str(info.value)
        assert message.startswith("no series converges at x = 1 on the upper branch")
        assert "lambda=1.0" in message and repr(bratu_module.LAMBDA_RADIUS) in message

    def test_no_sign_change(self):
        # Below LAMBDA_RADIUS at low order the climb cannot step upward.
        with pytest.raises(BranchNotFoundError, match="no sign change found on the lower branch"):
            shoot(3.0, 4, "lower")

    # No solution exists above the fold lambda_c = 3.5138, though the
    # truncated residual can have a root there (gamma = 2.4197 at (4.0, 30),
    # residual -4.4e-16). The fold lies above LAMBDA_RADIUS, so shoot
    # refuses such a lambda before any run.
    @pytest.mark.parametrize("lam, order", [(4.0, 30), (10.0, 10), (3.6, 60),
                                            (3.51383072, 30)])
    def test_no_solution_above_the_fold(self, lam, order, monkeypatch):
        monkeypatch.setattr(bratu_module, "run", lambda *a: pytest.fail("a gamma was run"))
        for branch in ("lower", "upper"):
            with pytest.raises(BranchNotFoundError,
                               match=f"no series converges at x = 1 .*lambda={lam!r}"):
                shoot(lam, order, branch)

    def test_radius_is_one_at_lambda_radius(self):
        # The constant is where the lower branch's radius
        # sqrt(1/4 + pi^2/theta^2) about x = 0 falls to 1.
        theta, = analytic_theta_roots(bratu_module.LAMBDA_RADIUS, "lower")
        assert abs(math.sqrt(0.25 + math.pi**2 / theta**2) - 1.0) <= 1e-12
        assert abs(bratu_module.LAMBDA_RADIUS - 3.1722028) <= 1e-7

    def test_just_below_lambda_radius_runs(self):
        sol = shoot(math.nextafter(bratu_module.LAMBDA_RADIUS, 0.0), 30, "lower")
        assert abs(sol.residual) <= bratu_module.RESIDUAL_TOL

    @pytest.mark.parametrize("order", [3, 10, 30, 600])
    def test_refused_before_any_run(self, order, monkeypatch):
        # Every upper input, and every lambda from LAMBDA_RADIUS up.
        monkeypatch.setattr(bratu_module, "run", lambda *a: pytest.fail("a gamma was run"))
        radius = bratu_module.LAMBDA_RADIUS
        cases = [(lam, "upper") for lam in (bratu_module.LAMBDA_MIN, 0.1, 1.0, 3.0, radius,
                                            3.5, bratu_module.LAMBDA_MAX)]
        cases += [(lam, "lower") for lam in (radius, 3.3, 3.5, 4.0, 10.0)]
        for lam, branch in cases:
            with pytest.raises(BranchNotFoundError, match=f"lambda={lam!r}"):
                shoot(lam, order, branch)

    def test_evaluation_budget(self, monkeypatch):
        calls = []
        real = bratu_module.boundary_residual

        def counted(coeffs):
            calls.append(coeffs)
            return real(coeffs)

        monkeypatch.setattr(bratu_module, "boundary_residual", counted)
        sol = shoot(1.0, 30, "lower")
        assert abs(sol.residual) <= 1e-12
        assert len(calls) <= 20

    def test_residual_evaluations_over_the_timed_range(self, monkeypatch):
        # 21 evenly spaced lambda each for N = 30 on [0.05, 1.75] and N = 60
        # on [0.05, 2.4], the ranges the benchmark draws from. The total is
        # pinned, so a change to the climb or the refinement shows here.
        calls = []
        real = bratu_module.boundary_residual

        def counted(coeffs):
            calls.append(coeffs)
            return real(coeffs)

        monkeypatch.setattr(bratu_module, "boundary_residual", counted)
        for order, top in ((30, 1.75), (60, 2.4)):
            for i in range(21):
                sol = shoot(0.05 + (top - 0.05) * i / 20, order, "lower")
                assert abs(sol.residual) <= 1e-12
        assert len(calls) == 166

    def test_one_run_per_trial(self, monkeypatch):
        # The accepted gamma's series is the run its trial already made.
        runs, trials = [], []
        real_run, real_residual = bratu_module.run, bratu_module.boundary_residual

        def counted_run(plan, initial):
            runs.append(initial)
            return real_run(plan, initial)

        def counted_residual(coeffs):
            trials.append(coeffs)
            return real_residual(coeffs)

        monkeypatch.setattr(bratu_module, "run", counted_run)
        monkeypatch.setattr(bratu_module, "boundary_residual", counted_residual)
        sol = shoot(1.0, 30, "lower")
        assert len(runs) == len(trials) > 0
        assert any(coeffs is sol.coeffs for coeffs in trials)

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    @pytest.mark.parametrize("order", [10, 30])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 2.0, 3.0])
    def test_gamma_inside_full_scan_bracket(self, lam, order, branch):
        # The upper-branch series diverges at x = 1, so every upper case
        # is refused.
        if branch == "upper":
            with pytest.raises(BranchNotFoundError, match="no series converges at x = 1"):
                shoot(lam, order, branch)
            return
        if (lam, order) == (3.0, 10):
            # The residual bends up before its first sign change, whose
            # root had max_abs_err 0.58; the climb's slope check refuses it.
            with pytest.raises(BranchNotFoundError, match="no sign change found"):
                shoot(lam, order, branch)
            return
        brackets = _grid_brackets(lam, order)
        if not brackets:
            with pytest.raises(BranchNotFoundError):
                shoot(lam, order, branch)
            return
        lo, hi = brackets[0]
        assert lo <= shoot(lam, order, branch).gamma <= hi

    @pytest.mark.parametrize("lam, order", [(1.75, 30), (1.0, 60), (2.0, 60), (2.4, 60),
                                            (3.0, 60)])
    def test_lower_gamma_inside_first_grid_bracket(self, lam, order):
        # 1.75 at N = 30 and 2.4 at N = 60 top the benchmark's lambda
        # ranges, where the continuation walk takes its longest steps.
        lo, hi = _grid_brackets(lam, order)[0]
        assert lo <= shoot(lam, order, "lower").gamma <= hi

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            shoot(1.0, 2, "lower")
        with pytest.raises(ValueError):
            shoot(1.0, 30, "middle")
        # Checked up front: no NonFiniteCoefficientError from a NaN plan, and
        # no BranchNotFoundError from a scan that cannot cross zero.
        for lam in (math.nan, -1.0):
            with pytest.raises(InvalidArgumentError, match="lambda must lie in"):
                shoot(lam, 30, "lower")


class TestThetaRoots:
    def test_two_roots_at_lambda_one(self):
        roots = analytic_theta_roots(1.0)
        assert len(roots) == 2
        assert abs(roots[0] - THETA_LOWER_L1) <= 1e-11
        assert abs(roots[1] - THETA_UPPER_L1) <= 1e-11

    def test_two_roots_at_lambda_two(self):
        roots = analytic_theta_roots(2.0)
        assert len(roots) == 2
        assert abs(roots[0] - THETA_LOWER_L2) <= 1e-11
        assert abs(roots[1] - THETA_UPPER_L2) <= 1e-11

    def test_no_roots_above_critical(self):
        assert analytic_theta_roots(5.0) == []

    def test_roots_ascending_and_consistent(self):
        for lam in (0.5, 1.0, 2.0, 3.0, 3.5):
            roots = analytic_theta_roots(lam)
            assert roots == sorted(roots)
            s = math.sqrt(2.0 * lam)
            for theta in roots:
                assert abs(theta - s * math.cosh(theta / 4.0)) <= 1e-12

    def test_root_count_non_increasing_in_lambda(self):
        counts = [len(analytic_theta_roots(lam)) for lam in (0.5, 1, 2, 3, 3.5, 4, 5)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] == 2 and counts[-1] == 0

    def test_transition_at_maximum_of_theta_ratio(self):
        # Independent oracle: golden-section maximization of
        # h(t) = t^2 / (2 cosh^2(t/4)) locates the two-to-zero transition.
        phi = (math.sqrt(5.0) - 1.0) / 2.0

        def h(t):
            c = math.cosh(t / 4.0)
            return t * t / (2.0 * c * c)

        a, b = 0.1, 20.0
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        while b - a > 1e-11:
            if h(c) > h(d):
                b, d = d, c
                c = b - phi * (b - a)
            else:
                a, c = c, d
                d = a + phi * (b - a)
        lam_c = h(0.5 * (a + b))
        assert abs(lam_c - LAMBDA_CRITICAL) <= 1e-8
        assert len(analytic_theta_roots(lam_c - 0.01)) == 2
        assert len(analytic_theta_roots(lam_c + 0.01)) == 0
        # Just below the fold both roots lie within 1e-3 of each other.
        lam = LAMBDA_CRITICAL - 1e-8
        roots = analytic_theta_roots(lam)
        assert len(roots) == 2
        s = math.sqrt(2.0 * lam)
        for theta in roots:
            assert abs(theta - s * math.cosh(theta / 4.0)) <= 1e-12
        assert analytic_theta_roots(lam, "lower") == roots[:1]

    @pytest.mark.parametrize("lam", [0.05, 1.0, 2.0, 3.5])
    def test_evaluation_budget(self, monkeypatch, lam):
        calls = []
        real = math.cosh

        def counted(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(math, "cosh", counted)
        roots = analytic_theta_roots(lam)
        monkeypatch.undo()
        assert len(roots) == 2
        assert len(calls) <= 64

    def test_every_bracket_within_forty_evaluations(self, monkeypatch):
        # Both brackets of 2,001 lambda evenly spaced on [LAMBDA_MIN, 3.5138].
        # Bisecting the last step at tol = 0 took up to 50 evaluations with
        # Illinois and 66 with Pegasus alone; Anderson-Bjorck stagnates.
        counts = []
        real = bratu_module._regula_falsi

        def counted(f, *bracket):
            calls = []

            def g(t):
                calls.append(t)
                return f(t)

            result = real(g, *bracket)
            counts.append(len(calls))
            return result

        monkeypatch.setattr(bratu_module, "_regula_falsi", counted)
        lo = bratu_module.LAMBDA_MIN
        for i in range(2001):
            assert len(analytic_theta_roots(lo + (3.5138 - lo) * i / 2000)) == 2
        assert len(counts) == 4002
        assert max(counts) <= 40

    def test_every_upper_solve_within_twenty_evaluations(self, monkeypatch):
        # The upper bracket ends at 4 acosh(THETA_MAX / s), past every root
        # up to THETA_MAX; ending at THETA_MAX itself took up to 33.
        calls = []
        real = math.cosh

        def counted(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(math, "cosh", counted)
        lo = bratu_module.LAMBDA_MIN
        counts = []
        for i in range(2001):
            calls.clear()
            assert len(analytic_theta_roots(lo + (3.5138 - lo) * i / 2000, "upper")) == 1
            counts.append(len(calls))
        assert max(counts) <= 20

    @pytest.mark.parametrize("lam", [bratu_module.LAMBDA_MIN, 0.05, 1.0, 3.5,
                                     LAMBDA_CRITICAL - 1e-8])
    def test_branch_solves_its_own_root_bitwise(self, lam):
        roots = analytic_theta_roots(lam)
        assert len(roots) == 2
        lower, upper = roots
        assert [r.hex() for r in analytic_theta_roots(lam, "lower")] == [lower.hex()]
        assert [r.hex() for r in analytic_theta_roots(lam, "upper")] == [upper.hex()]

    def test_both_brackets_lie_inside_the_search(self):
        # Where the clamps at THETA_MAX used to stand: on the whole supported
        # range the maximum t* and the upper bracket's end lie below
        # THETA_MAX, and g is negative at that end, so each bracket holds
        # its root. A LAMBDA_MIN lowered past about 7e-10 fails here.
        lo, hi = bratu_module.LAMBDA_MIN, bratu_module.LAMBDA_MAX
        theta_max = bratu_module.THETA_MAX
        grid = [lo * (hi / lo) ** (i / 400) for i in range(401)]
        for lam in [lo, *grid, hi]:
            s = math.sqrt(2.0 * lam)
            end = 4.0 * math.acosh(theta_max / s)
            assert 4.0 * math.asinh(4.0 / s) < theta_max
            assert end < theta_max
            assert end - s * math.cosh(end / 4.0) < 0.0

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_no_root_for_either_branch(self, branch):
        lam = 3.5138308
        assert analytic_theta_roots(lam) == analytic_theta_roots(lam, branch) == []

    def test_branch_validation(self):
        # The branch is checked first, as in shoot.
        for lam in (1.0, math.nan):
            with pytest.raises(InvalidArgumentError, match="branch must be"):
                analytic_theta_roots(lam, "middle")

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            analytic_theta_roots(0.0)
        with pytest.raises(ValueError):
            analytic_theta_roots(-1.0)
        # Outside [LAMBDA_MIN, LAMBDA_MAX] the theta search range is too
        # short: at 1e-12 the upper root 73.86 lies beyond THETA_MAX.
        for lam in (1e-12, math.nan, 10.5):
            with pytest.raises(InvalidArgumentError, match=r"lambda must lie in \[0\.001, 10\]"):
                analytic_theta_roots(lam)


class TestClimb:
    @staticmethod
    def counted(f):
        calls = []

        def g(t):
            calls.append(t)
            return f(t)

        return g, calls

    @pytest.mark.parametrize("root", [0.6, 1.9, 7.3])
    def test_linear_residual_in_two_evaluations(self, root):
        # Newton from 0 lands on the root of a line.
        walk, calls = self.counted(lambda g: (0.8 * (g - root), 0.8))
        a, fa, b, fb = bratu_module._climb(walk)
        assert (a, fa) == (b, fb) and abs(fb) <= bratu_module.RESIDUAL_TOL
        assert abs(b - root) <= 1e-12
        assert calls[0] == 0.0 and len(calls) == 2

    def test_zero_at_the_start_is_returned_at_once(self):
        walk, calls = self.counted(lambda g: (g, 1.0))
        assert bratu_module._climb(walk) == (0.0, 0.0, 0.0, 0.0)
        assert calls == [0.0]

    def test_hermite_follows_a_concave_residual(self):
        # r = 0.5 - e^(-g), concave and rising: Newton from 0 lands at 0.5,
        # short of the root ln 2, and the Hermite step lands far closer
        # than Newton's from 0.5 would.
        walk, calls = self.counted(lambda g: (0.5 - math.exp(-g), math.exp(-g)))
        a, fa, b, fb = bratu_module._climb(walk)
        assert (a, fa) == (b, fb) and abs(b - math.log(2.0)) <= 1e-12
        newton = 0.5 + (0.5 - math.exp(-0.5)) / math.exp(-0.5)
        assert calls[:2] == [0.0, 0.5] and len(calls) == 5
        assert abs(calls[2] - math.log(2.0)) < abs(newton - math.log(2.0)) / 10.0

    @pytest.mark.parametrize("slope, newton", [(0.02, 25.5), (0.01, None)])
    def test_hermite_beyond_gamma_max_takes_newton(self, slope, newton):
        # Through (0, -1, 2) and (0.5, -0.5, slope) the inverse Hermite's
        # root lies past GAMMA_MAX (98.5 at slope 0.02), so the climb takes
        # the Newton step from 0.5, and stops when that lies past it too.
        def f(g):
            if g == 0.0:
                return -1.0, 2.0
            return (-0.5, slope) if g == 0.5 else (0.0, slope / 2.0)

        walk, calls = self.counted(f)
        if newton is None:
            assert bratu_module._climb(walk) is None
            assert calls == [0.0, 0.5]
        else:
            assert bratu_module._climb(walk) == (newton, 0.0, newton, 0.0)
            assert calls == [0.0, 0.5, newton]

    def test_sign_change_whose_product_underflows(self, monkeypatch):
        # 1e-200 * -1e-200 underflows to -0.0: still a bracket. At the
        # default tolerance either end would be accepted first, so the
        # product rule is tested at tolerance 0.
        monkeypatch.setattr(bratu_module, "RESIDUAL_TOL", 0.0)
        walk, calls = self.counted(lambda g: (-1e-200 if g == 0.0 else 1e-200, 1.0))
        assert bratu_module._climb(walk) == (0.0, -1e-200, 1e-200, 1e-200)
        assert calls == [0.0, 1e-200]

    def test_overflowing_trial_raises(self):
        # Newton from 0 jumps to 7, past the root at 0.888, where the run
        # overflows.
        def f(g):
            if g > 1.0:
                raise NonFiniteCoefficientError(7)
            return g ** 3 - 0.7, 0.1

        walk, calls = self.counted(f)
        with pytest.raises(NonFiniteCoefficientError):
            bratu_module._climb(walk)
        assert calls[0] == 0.0 and len(calls) == 2 and calls[1] > 1.0

    @pytest.mark.parametrize("slope", [0.0, -0.5, math.nan])
    def test_non_positive_slope_stops(self, slope):
        walk, calls = self.counted(lambda g: (-1.0, slope))
        assert bratu_module._climb(walk) is None
        assert calls == [0.0]

    def test_growing_slope_stops_before_its_sign_change(self):
        # The second trial changes sign, but its slope grew from 1 to 3:
        # the residual bent up, off the lower branch's shape, so no bracket
        # is returned.
        walk, calls = self.counted(lambda g: (-1.0, 1.0) if g == 0.0 else (2.0, 3.0))
        assert bratu_module._climb(walk) is None
        assert calls == [0.0, 1.0]

    def test_growing_slope_refuses_the_lambda_3_1319_order_10_answer(self):
        # Accepting this sign change before the slope check returned
        # gamma = 3.9886, whose series is off the closed form by 0.57.
        with pytest.raises(BranchNotFoundError, match="no sign change found"):
            shoot(3.1319, 10, "lower")


class TestRegulaFalsi:
    def test_lands_within_one_ulp_of_sqrt2(self):
        x, fx = bratu_module._regula_falsi(lambda t: t * t - 2.0, 0.0, -2.0, 2.0, 2.0, 0.0)
        assert abs(x - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
        assert fx == x * x - 2.0

    def test_end_meeting_tol_costs_no_evaluation(self):
        calls = []

        def f(t):
            calls.append(t)
            return t - 1.0

        assert bratu_module._regula_falsi(f, 1.0, 0.0, 3.0, 2.0, 0.0) == (1.0, 0.0)
        assert bratu_module._regula_falsi(f, 0.0, -1e-13, 3.0, 2.0, 1e-12) == (0.0, -1e-13)
        assert bratu_module._regula_falsi(f, 0.0, -1.0, 1.0, 0.0, 0.0) == (1.0, 0.0)
        assert calls == []

    def test_pegasus_steps_on_t_squared_minus_two(self):
        # Secant points of t^2 - 2 on [1, 2]: 4/3 changes sign, so the old b
        # becomes a; 1.4 does not, so f(a) = 2 is scaled by fb / (fb + fx).
        # (Illinois would halve it instead, and try 1.4231 third.)
        calls = []

        def f(t):
            calls.append(t)
            return t * t - 2.0

        x, fx = bratu_module._regula_falsi(f, 1.0, -1.0, 2.0, 2.0, 1e-12)
        assert abs(fx) <= 1e-12 and fx == x * x - 2.0
        b, fb = 4.0 / 3.0, 16.0 / 9.0 - 2.0
        assert abs(calls[0] - b) <= 1e-15
        assert abs(calls[1] - 1.4) <= 1e-15
        fa = 2.0 * (fb / (fb + (1.4 * 1.4 - 2.0)))
        third = 1.4 - (1.4 * 1.4 - 2.0) * (1.4 - 2.0) / ((1.4 * 1.4 - 2.0) - fa)
        assert abs(calls[2] - third) <= 1e-14
        assert abs(third - 1.41383) <= 1e-5
        assert len(calls) <= 6

    def test_zero_met_inside_is_returned_at_once(self):
        calls = []

        def f(t):
            calls.append(t)
            return t - 1.5

        assert bratu_module._regula_falsi(f, 1.0, -0.5, 2.0, 0.5, 0.0) == (1.5, 0.0)
        assert calls == [1.5]

    @pytest.mark.parametrize("f, a, b", [
        (lambda t: t * t - 2.0, 0.0, 2.0),
        (lambda t: t * t - 2.0, 1.0, 2.0),
        (lambda t: math.exp(t) - 10.0, 0.0, 5.0),
        (lambda t: t ** 3 - 0.1, 0.0, 1.0),
    ], ids=["sqrt2-wide", "sqrt2", "log10", "cube-root"])
    def test_bracket_collapses_at_tol_zero(self, f, a, b):
        # No float is a root: the solve ends on two adjacent floats whose
        # values differ in sign, returning the one of smaller |f|, after a
        # step beside the last point rather than a bisection of the bracket.
        calls = []

        def g(t):
            calls.append(t)
            return f(t)

        x, fx = bratu_module._regula_falsi(g, a, f(a), b, f(b), 0.0)
        assert fx == f(x) != 0.0
        below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
        neighbour = below if (f(below) < 0.0) != (fx < 0.0) else above
        assert (f(neighbour) < 0.0) != (fx < 0.0)
        assert abs(fx) <= abs(f(neighbour))
        assert len(calls) <= 12

    def test_adjacent_ends_cost_no_evaluation(self):
        calls = []
        a, b = 1.0, math.nextafter(1.0, 2.0)
        x = bratu_module._regula_falsi(calls.append, a, -1.0, b, 2.0, 0.0)
        assert x == (a, -1.0) and calls == []


class TestAnalyticSolution:
    def test_boundary_values_vanish(self):
        for theta in (0.0, 1.5, 10.9):
            assert analytic_u(theta, 0.0) == 0.0
            assert analytic_u(theta, 1.0) == 0.0

    def test_midpoint_value(self):
        for theta in (0.5, THETA_LOWER_L1, 9.0):
            want = 2.0 * math.log(math.cosh(theta / 4.0))
            assert abs(analytic_u(theta, 0.5) - want) <= 1e-13
            if theta > 0:
                assert analytic_u(theta, 0.5) > 0.0

    def test_symmetry(self):
        for theta in (0.7, 2.0, 10.0):
            for x in (0.1, 0.25, 0.4, 0.8):
                assert abs(analytic_u(theta, x) - analytic_u(theta, 1.0 - x)) <= 1e-12

    def test_branch_thetas(self):
        [lower] = analytic_theta_roots(1.0, "lower")
        [upper] = analytic_theta_roots(1.0, "upper")
        assert lower < upper
        assert analytic_u(lower, 0.5) > 0.0
        assert analytic_theta_roots(5.0, "lower") == []


class TestCompare:
    def test_lower_branch_error_bound(self):
        assert compare(1.0, 30, 101, "lower") <= 1e-6

    def test_truncation_error_shrinks_with_order(self):
        assert compare(1.0, 20, 101, "lower") < compare(1.0, 10, 101, "lower")

    def test_small_lambda_error_vanishes(self):
        assert compare(1e-3, 30, 101, "lower") <= 1e-9

    def test_solution_symmetry_transfer(self):
        sol = shoot(1.0, 30, "lower")
        max_err = compare(1.0, 30, 101, "lower")
        for i in range(101):
            x = i / 100
            gap = abs(evaluate(sol.coeffs, x) - evaluate(sol.coeffs, 1.0 - x))
            assert gap <= 2.0 * max_err + 1e-12

    def test_upper_branch_reports_without_bound(self):
        # The upper-branch series cannot converge at x = 1: at N = 10 the
        # root of its truncated residual is 2.67 off the closed form.
        with pytest.raises(BranchNotFoundError, match="no series converges at x = 1"):
            compare(1.0, 10, 21, "upper")

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            compare(1.0, 30, 1, "lower")

    @pytest.mark.parametrize("lam, order, grid, branch", [
        (bratu_module.LAMBDA_MIN, 10, 2, "lower"),
        (1.0, 30, 101, "lower"),
        (1.0, 10, 21, "lower"),
        (2.4, 60, 37, "lower"),
        (1.0, 45, 101, "lower"),
    ])
    def test_rows_use_the_closed_form_bitwise(self, lam, order, grid, branch):
        sol, theta, rows = bratu_module._comparison(lam, order, grid, branch)
        assert theta.hex() == analytic_theta_roots(lam, branch)[0].hex()
        assert [row[0] for row in rows] == [i / (grid - 1) for i in range(grid)]
        for x, u_dtm, u_ref, err in rows:
            assert u_dtm.hex() == evaluate(sol.coeffs, x).hex()
            assert u_ref == analytic_u(theta, x)
            assert err == abs(u_dtm - u_ref)
