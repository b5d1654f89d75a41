"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s`` or in failure
reports). Stated runtime budgets are asserted on a warmed-up measurement.
"""

import math
import random
import time
from contextlib import contextmanager

from dtmseries import (
    analytic_theta_roots,
    bratu_coeffs,
    bratu_plan,
    compare,
    exp_naive,
    exp_series,
    lower,
    parse,
    pow_int,
    pow_naive,
    run,
    shoot,
)
from util import oracle_series, oracle_series_valuation, relgap


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    print(f"[criterion {number}] PASS  {description}")


def test_criterion_1_first_coefficients():
    with criterion(1, "first Bratu coefficients match the closed forms, < 1 ms"):
        cases = [(lam, gamma) for lam in (0.5, 1.0, 2.0) for gamma in (0.1, 1.0, 3.0)]

        def check():
            for lam, gamma in cases:
                u = bratu_coeffs(lam, gamma, 3)
                assert u[0] == 0.0
                assert u[1] == gamma
                assert abs(u[2] - (-lam / 2.0)) <= 1e-15 * abs(lam / 2.0)
                assert abs(u[3] - (-gamma * lam / 6.0)) <= 1e-15 * abs(gamma * lam / 6.0)

        check()  # warm-up
        t0 = time.perf_counter()
        check()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_2_power_oracle():
    with criterion(2, "Miller vs naive oracle, plain and forced-valuation, < 1 s"):
        pow_int(oracle_series(random.Random(0), 8), 3)  # warm-up
        t0 = time.perf_counter()
        rng = random.Random(34)
        for _ in range(100):
            a = oracle_series(rng)
            for m in range(2, 9):
                assert relgap(pow_int(a, m)[0], pow_naive(a, m)[0]) <= 1e-10
        rng = random.Random(34)
        for _ in range(100):
            a = oracle_series_valuation(rng)
            for m in range(2, 9):
                assert relgap(pow_int(a, m)[0], pow_naive(a, m)[0]) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_3_exp_oracle():
    with criterion(3, "exp recurrence vs constant-split naive oracle, < 1 s"):
        exp_series(oracle_series(random.Random(0), 8))  # warm-up
        t0 = time.perf_counter()
        rng = random.Random(34)
        for _ in range(100):
            a = oracle_series(rng)
            assert relgap(exp_series(a)[0], exp_naive(a)[0]) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_4_bratu_paths_agree():
    with criterion(4, "simplified recurrence vs exp path at order 30, < 10 ms"):
        bratu_coeffs(1.0, 0.5, 30)  # warm-up

        def check():
            for lam, gamma in ((1.0, 0.5), (2.0, 3.0)):
                gap = relgap(
                    bratu_coeffs(lam, gamma, 30), run(bratu_plan(lam, 30), (0.0, gamma))
                )
                assert gap <= 1e-12

        t0 = time.perf_counter()
        check()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1e-2, f"took {elapsed * 1e3:.2f} ms"


def test_criterion_5_boundary_value_solve():
    with criterion(5, "shooting converges and the grid error is bounded, < 1 s"):
        t0 = time.perf_counter()
        solution = shoot(1.0, 30, "lower")
        assert abs(solution.residual) <= 1e-12
        assert compare(1.0, 30, 101, "lower") <= 1e-6
        assert compare(1.0, 20, 101, "lower") < compare(1.0, 10, 101, "lower")
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_6_gamma_theta_duality():
    with criterion(6, "shooting slope matches theta*tanh(theta/4)"):
        solution = shoot(1.0, 30, "lower")
        theta = analytic_theta_roots(1.0)[0]
        assert abs(solution.gamma - theta * math.tanh(theta / 4.0)) <= 1e-6


def test_criterion_7_root_multiplicity():
    with criterion(7, "theta condition root counts across lambda"):
        assert len(analytic_theta_roots(1.0)) == 2
        assert len(analytic_theta_roots(5.0)) == 0
        counts = [len(analytic_theta_roots(lam)) for lam in (0.5, 1, 2, 3, 3.5, 4, 5)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_criterion_8_complexity_claim():
    with criterion(8, "multiply-count ratio at order 64, exponent 8"):
        a = oracle_series(random.Random(0), order=64)
        count_naive = pow_naive(a, 8)[1].multiplies
        count_rec = pow_int(a, 8)[1].multiplies
        assert count_naive == 15015
        assert count_naive / count_rec >= 3.0


def test_criterion_9_dsl_equivalence():
    with criterion(9, "DSL solves match closed forms and the Bratu module"):
        sol = run(lower(parse("D(u,1) = u"), 20), [1.0])
        assert max(abs(sol[k] * math.factorial(k) - 1.0) for k in range(21)) <= 1e-12

        sol = run(lower(parse("D(u,1) = pow(u,2)"), 15), [1.0])
        assert max(abs(c - 1.0) for c in sol) <= 1e-12

        dsl = run(lower(parse("D(u,2) = -1 * exp(u)"), 20), [0.0, 0.5])
        assert dsl.coeffs == run(bratu_plan(1.0, 20), (0.0, 0.5)).coeffs
        assert relgap(dsl, bratu_coeffs(1.0, 0.5, 20)) <= 1e-12
