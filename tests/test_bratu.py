"""Bratu problem: recurrences, shooting, and the analytic reference."""

import math

import pytest

import dtmseries.bratu as bratu_module
from dtmseries import (
    AnalyticBratu,
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
        lower = shoot(1.0, 30, "lower")
        upper = shoot(1.0, 30, "upper")
        assert upper.branch == "upper"
        assert upper.gamma > lower.gamma

    def test_no_sign_change(self):
        # Above critical lambda at low order the truncated residual stays
        # negative across the whole scan range.
        with pytest.raises(BranchNotFoundError, match="no sign change"):
            shoot(4.0, 4, "lower")

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
        # Oracle: residuals on the whole gamma grid; the lower branch owns
        # the first zero or sign change, the upper branch the last.
        plan = bratu_plan(lam, order)
        step = bratu_module.GAMMA_STEP
        steps = int(round(bratu_module.GAMMA_MAX / step))
        gammas = [i * step for i in range(steps + 1)]
        residuals = [boundary_residual(run(plan, (0.0, g))) for g in gammas]
        brackets = []
        for i, r in enumerate(residuals):
            if r == 0.0:
                brackets.append((gammas[i], gammas[i]))
            elif i < steps and r * residuals[i + 1] < 0.0:
                brackets.append((gammas[i], gammas[i + 1]))
        if not brackets:
            with pytest.raises(BranchNotFoundError):
                shoot(lam, order, branch)
            return
        lo, hi = brackets[0] if branch == "lower" else brackets[-1]
        assert lo <= shoot(lam, order, branch).gamma <= hi

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
        AnalyticBratu.for_branch(lam, "lower")

    def test_no_branch_message_prints_lambda_exactly(self):
        with pytest.raises(BranchNotFoundError, match=r"lambda=3\.5138308;"):
            AnalyticBratu.for_branch(3.5138308, "lower")

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
        assert calls == []


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

    def test_for_branch(self):
        lower = AnalyticBratu.for_branch(1.0, "lower")
        upper = AnalyticBratu.for_branch(1.0, "upper")
        assert lower.theta < upper.theta
        assert lower.u(0.5) > 0.0
        with pytest.raises(BranchNotFoundError):
            AnalyticBratu.for_branch(5.0, "lower")


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
        # The upper-branch series need not converge on [0,1]; the comparison
        # must still run and report a finite number.
        err = compare(1.0, 20, 21, "upper")
        assert math.isfinite(err)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            compare(1.0, 30, 1, "lower")
