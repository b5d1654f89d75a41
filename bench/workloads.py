"""The three seeded workloads: their inputs, their ops and each op's check.

A workload draws its ops in rounds. Every round has the same composition
(the same mix of branches, orders, op kinds and pool entries); only the
values inside each stratum and the order of the ops are random. Runs with
different seeds therefore see the same mix, which keeps the metrics steady
across seeds, while the same seed always gives the same ops.

Each op is run through ``execute`` (the timed part) and, when it returned
an answer, judged by ``check`` against :mod:`oracle` (not timed). An op's status is one of

- ``ok``: the answer matches the oracle;
- ``wrong``: an answer was returned but it is wrong;
- ``typed``: the program raised one of its own errors (``DtmError``, or a
  nonzero CLI exit code) although an answer exists;
- ``untyped``: any other exception escaped.

The timed draw holds only inputs that the program answers correctly at the
commit that added the benchmark, so a failure there means the program got
worse, and the run reports ``correct: false``. Inputs on which that commit
is known to be wrong are not drawn. Each workload lists them instead in
``known_defects``: a fixed set of ops, each carrying in ``known`` the name
of its defect, that the worker runs and checks once per run, untimed. Their
failures are reported by name, so a fix shows as that list shrinking.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from dtmseries import DtmError, Series, cli, lang, powers, series

import oracle

OK, WRONG, TYPED, UNTYPED = "ok", "wrong", "typed", "untyped"


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    known: str | None = None

    def describe(self) -> str:
        return f"{self.kind}{self.args}"


def _call(fn, *args):
    """Run fn, turning an escaping exception into a classified outcome."""
    try:
        return OK, fn(*args)
    except DtmError as exc:
        return TYPED, repr(exc)
    except Exception as exc:  # the benchmark counts any other escape as a failure
        return UNTYPED, repr(exc)


def _compare(ref: oracle.Ref, got: Series) -> tuple[str, str]:
    k = ref.first_bad(got.coeffs)
    if k is None:
        return OK, ""
    if k >= len(got.coeffs) or k >= len(ref.value):
        return WRONG, f"order {got.order}, expected {len(ref.value) - 1}"
    return WRONG, (f"U({k}) = {got.coeffs[k]:.17g} is {abs(got.coeffs[k] - ref.value[k]):.3g} "
                   f"from the reference, bound {oracle.SERIES_RTOL * ref.bound[k]:.3g}")


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


# ----------------------------------------------------------------------
# bratu: the CLI's boundary-value solve, end to end
# ----------------------------------------------------------------------

#: Lower-branch solves at or above these lambdas fail the gamma tolerance at
#: the seed commit (the truncated series converges too slowly near the fold;
#: on a 0.01 grid every lambda from 1.93 for N=30 and from 2.61 for N=60
#: fails, and none below), as do all upper-branch solves (ROADMAP item 1).
#: The timed draw stays about 0.2 below the measured flips.
LOWER_LIMIT = {30: 1.75, 60: 2.4}

#: Known-defect ops: (lambda, N, branch).
BRATU_DEFECTS = tuple(
    [(lam, n, "upper") for n in (30, 60) for lam in (0.5, 1.5, 2.5, 3.4)]
    + [(lam, 30, "lower") for lam in (2.2, 3.0, 3.5)]
    + [(lam, 60, "lower") for lam in (2.8, 3.0, 3.5)]
)


class Bratu:
    """``dtmseries bratu --lambda L --order N --grid 101 --branch lower``.

    Lambda is drawn from ten equal strata of [0.05, LOWER_LIMIT[N]]. A
    round has a solve at N=30 in every stratum and one at N=60 in every
    third stratum (each stratum's turn comes every third round). About 75%
    of the ops are then N=30 solves, which keeps the median latency inside
    the N=30 group and the 90th percentile inside the N=60 group, rather
    than at the edge between them.
    """

    name = "bratu"
    STRATA = 10

    def __init__(self, seed: int):
        self.rng = random.Random(f"bratu:{seed}")

    def rounds(self):
        rng = self.rng
        for r in itertools.count():
            lam = {n: _stratified(rng, 0.05, hi, self.STRATA) for n, hi in LOWER_LIMIT.items()}
            ops = [Op("bratu", (lam[30][i], 30, "lower")) for i in range(self.STRATA)]
            ops += [Op("bratu", (lam[60][i], 60, "lower"))
                    for i in range(self.STRATA) if (i + r) % 3 == 0]
            rng.shuffle(ops)
            yield ops

    def known_defects(self) -> list[Op]:
        return [Op("bratu", args, "bratu-upper-nonroot" if args[2] == "upper"
                   else "bratu-lower-truncation") for args in BRATU_DEFECTS]

    @staticmethod
    def execute(op: Op):
        lam, n, branch = op.args
        argv = ["bratu", "--lambda", repr(lam), "--order", str(n),
                "--grid", "101", "--branch", branch]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback out of the CLI
                return UNTYPED, repr(exc)
        if code != 0:
            return TYPED, f"exit {code}: {err.getvalue().strip()}"
        return OK, (out.getvalue(), err.getvalue())

    @staticmethod
    def check(op: Op, result) -> tuple[str, str]:
        lam, n, branch = op.args
        csv_text, summary_text = result
        summary = json.loads(summary_text)
        rows = csv_text.splitlines()
        if len(rows) != 102 or summary["order"] != n:
            return WRONG, f"{len(rows)} CSV rows, order {summary['order']}"
        want = oracle.bratu_gamma(lam, branch)
        if not oracle.gamma_ok(summary["gamma"], want):
            return WRONG, f"gamma {summary['gamma']:.6g}, exact {want:.6g}"
        return OK, ""


# ----------------------------------------------------------------------
# solve: parse + lower + run of short equations
# ----------------------------------------------------------------------

_U, _X = ("u",), ("x",)

#: (DSL text, reference tuple, lhs order, initial coefficients, highest N).
SOLVE_POOL = (
    ("D(u,2) = -1*exp(u)", ("s", -1.0, ("exp", _U)), 2, (0.0, 0.5), 80),
    ("D(u,2) = -1*exp(u)", ("s", -1.0, ("exp", _U)), 2, (0.0, 1.0), 80),
    ("D(u,1) = -1*pow(u,2)", ("s", -1.0, ("pow", _U, 2)), 1, (1.0,), 80),
    ("D(u,1) = -1*pow(u,2)", ("s", -1.0, ("pow", _U, 2)), 1, (0.5,), 80),
    ("D(u,1) = 1 + pow(u,2)", ("+", ("c", 1.0), ("pow", _U, 2)), 1, (0.0,), 80),
    # Miller's recurrence for u*u drifts once u has a zero inside its disk
    # of convergence (here at x = -0.46 against a pole at 1.107): every N
    # from 32 up fails, none below. The draw keeps N <= 24; higher N is
    # a known defect.
    ("D(u,1) = 1 + pow(u,2)", ("+", ("c", 1.0), ("pow", _U, 2)), 1, (0.5,), 24),
    ("D(u,2) = pow(u,3)", ("pow", _U, 3), 2, (0.0, 1.0), 80),
    ("D(u,2) = pow(u,3)", ("pow", _U, 3), 2, (0.0, 0.5), 80),
    ("D(u,2) = -1*D(u,1) - 2*u", ("-", ("s", -1.0, ("d", 1)), ("s", 2.0, _U)), 2,
     (1.0, 0.0), 80),
    ("D(u,2) = -1*D(u,1) - 2*u", ("-", ("s", -1.0, ("d", 1)), ("s", 2.0, _U)), 2,
     (0.0, 1.0), 80),
    ("D(u,2) = x*u", ("*", _X, _U), 2, (1.0, 0.0), 80),
    ("D(u,2) = x*u", ("*", _X, _U), 2, (0.0, 1.0), 80),
    ("D(u,2) = -1*u*exp(u) + exp(u)",
     ("+", ("*", ("s", -1.0, _U), ("exp", _U)), ("exp", _U)), 2, (0.1, 0.2), 80),
    ("D(u,2) = -1*u*exp(u) + exp(u)",
     ("+", ("*", ("s", -1.0, _U), ("exp", _U)), ("exp", _U)), 2, (0.3, -0.2), 80),
    ("D(u,3) = -0.5*u*D(u,2)", ("*", ("s", -0.5, _U), ("d", 2)), 3,
     (0.0, 0.0, 0.332), 80),
    ("D(u,3) = -0.5*u*D(u,2)", ("*", ("s", -0.5, _U), ("d", 2)), 3,
     (0.0, 1.0, 0.5), 80),
)
SOLVE_ORDERS = (10, 80)
#: Known-defect ops: (pool index, N).
SOLVE_DEFECTS = ((5, 40), (5, 60), (5, 80))


class Solve:
    """``run(lower(parse(text), N), ic)`` for N in [10, 80].

    A round runs every pool entry once. N is stratified over [10, 80]
    and drawn again, in [10, top], for an entry whose highest N is lower.
    """

    name = "solve"

    def __init__(self, seed: int):
        self.rng = random.Random(f"solve:{seed}")
        self._refs: dict[int, oracle.Ref] = {}

    def rounds(self):
        rng = self.rng
        lo, hi = SOLVE_ORDERS
        while True:
            orders = [int(x) for x in _stratified(rng, lo, hi + 1, len(SOLVE_POOL))]
            rng.shuffle(orders)
            ops = []
            for i, n in enumerate(orders):
                top = SOLVE_POOL[i][4]
                ops.append(Op("solve", (i, n if n <= top else rng.randint(lo, top))))
            rng.shuffle(ops)
            yield ops

    def known_defects(self) -> list[Op]:
        return [Op("solve", args, "miller-drift") for args in SOLVE_DEFECTS]

    @staticmethod
    def execute(op: Op):
        i, n = op.args
        text, _, _, ic, _ = SOLVE_POOL[i]
        return _call(lambda: lang.run(lang.lower(lang.parse(text), n), ic))

    def check(self, op: Op, result) -> tuple[str, str]:
        i, n = op.args
        ref = self._refs.get(i)
        if ref is None:
            _, rhs, m, ic, _ = SOLVE_POOL[i]
            ref = self._refs[i] = oracle.ref_solve(rhs, m, ic, SOLVE_ORDERS[1])
        return _compare(ref.truncated(n), result)


# ----------------------------------------------------------------------
# long_series: whole-series kernels and plan runs at N = 250 .. 1000
# ----------------------------------------------------------------------

LONG_ORDERS = (250, 500, 1000)
LONG_TOP = LONG_ORDERS[-1]
POW_MAX = 8

#: (DSL text, reference tuple, lhs order, initial-coefficient choices).
LONG_PLANS = (
    ("D(u,2) = -1*exp(u)", ("s", -1.0, ("exp", _U)), 2,
     ((0.0, 0.5), (0.0, 1.0), (0.2, -0.3))),
    ("D(u,1) = pow(u,3) - x*u", ("-", ("pow", _U, 3), ("*", _X, _U)), 1,
     ((0.6,), (0.7,), (0.8,))),
    ("D(u,2) = -1*u*exp(u) + exp(u)",
     ("+", ("*", ("s", -1.0, _U), ("exp", _U)), ("exp", _U)), 2,
     ((0.0, 0.0), (0.1, 0.2), (0.3, -0.2))),
)

#: Index of the base series that has a zero inside its disk of convergence.
ZERO_BASE = 5
N_BASES = 6
POW_BASES = tuple(b for b in range(N_BASES) if b != ZERO_BASE)
MUL_PAIRS = ((0, 1), (2, 3), (4, 5))


def base_coeffs(rng: random.Random, index: int) -> list[float]:
    """Coefficients of c * x^v * (1 - x/rho)^(-alpha) [* (1 - x/z)] to LONG_TOP.

    Odd bases have a zero constant term (v = 1), which sends pow_int down
    its valuation-shift path. The function has no zero inside its disk
    |x| < rho, except base ``ZERO_BASE``, which gets the factor (1 - x/z)
    with |z| in [0.3, 0.7] rho.
    """
    c = rng.uniform(0.5, 1.0)
    rho = rng.uniform(1.0, 1.5)
    alpha = rng.uniform(0.5, 1.5)
    v = index % 2
    y = [0.0] * (LONG_TOP + 1)
    t = c
    for k in range(LONG_TOP + 1 - v):
        y[k + v] = t
        t = t * (alpha + k) / ((k + 1) * rho)
    if index == ZERO_BASE:
        z = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.7) * rho
        y = [y[0]] + [y[k] - y[k - 1] / z for k in range(1, LONG_TOP + 1)]
    return y


class LongSeries:
    """Whole-series pow_int / exp_series / mul, and runs of pre-lowered plans.

    Set-up draws six base series and lowers every plan at every N. A round
    holds 24 ops, eight per N: three pow_int (m in 2..8), one exp_series,
    one mul and one run of each plan. exp_series cycles through the six
    bases and pow_int through all but ``ZERO_BASE``, whose powers Miller's
    recurrence gets wrong (a known defect: across seeds 0-29 every
    pow_int of that base at N=1000 failed, and no other op did). With
    three pow_int at N=1000 the 90th latency percentile falls inside that
    group of like ops rather than between two unlike ones.
    """

    name = "long_series"

    def __init__(self, seed: int):
        self.rng = rng = random.Random(f"long_series:{seed}")
        self.bases = [base_coeffs(rng, i) for i in range(N_BASES)]
        self.inputs = {(i, n): Series(b[: n + 1])
                       for i, b in enumerate(self.bases) for n in LONG_ORDERS}
        self.plans = {(p, n): lang.lower(lang.parse(LONG_PLANS[p][0]), n)
                      for p in range(len(LONG_PLANS)) for n in LONG_ORDERS}
        self._refs: dict[tuple, object] = {}

    def rounds(self):
        rng = self.rng
        pow_cycle: list[int] = []
        exp_cycle: list[int] = []

        def next_base(cycle: list[int], bases) -> int:
            # Every base once per cycle, in a fresh order each cycle.
            if not cycle:
                cycle.extend(bases)
                rng.shuffle(cycle)
            return cycle.pop()

        while True:
            pairs = list(range(len(MUL_PAIRS)))
            rng.shuffle(pairs)
            ops = []
            for n in LONG_ORDERS:
                for _ in range(3):
                    b = next_base(pow_cycle, POW_BASES)
                    ops.append(Op("pow_int", (b, rng.randint(2, POW_MAX), n)))
                ops.append(Op("exp_series", (next_base(exp_cycle, range(N_BASES)), n)))
                ops.append(Op("mul", (pairs.pop(), n)))
                for p, plan in enumerate(LONG_PLANS):
                    ops.append(Op("run", (p, rng.randrange(len(plan[3])), n)))
            rng.shuffle(ops)
            yield ops

    def known_defects(self) -> list[Op]:
        return [Op("pow_int", (ZERO_BASE, m, LONG_TOP), "miller-zero-in-disk")
                for m in range(2, POW_MAX + 1)]

    def execute(self, op: Op):
        if op.kind == "pow_int":
            b, m, n = op.args
            return _call(powers.pow_int, self.inputs[b, n], m)
        if op.kind == "exp_series":
            b, n = op.args
            return _call(powers.exp_series, self.inputs[b, n])
        if op.kind == "mul":
            pair, n = op.args
            i, j = MUL_PAIRS[pair]
            return _call(series.mul, self.inputs[i, n], self.inputs[j, n])
        p, ic, n = op.args
        return _call(lang.run, self.plans[p, n], LONG_PLANS[p][3][ic])

    def _cached(self, key: tuple, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def _reference(self, op: Op) -> oracle.Ref:
        """The op's reference; each is built once, at N=1000, and truncated."""
        n = op.args[-1]
        if op.kind == "pow_int":
            b, m, _ = op.args
            chain = self._cached(("pow_int", b),
                                 lambda: oracle.ref_powers(self.bases[b], POW_MAX))
            return chain[m].truncated(n)
        if op.kind == "exp_series":
            b = op.args[0]
            ref = self._cached(("exp_series", b), lambda: oracle.ref_exp(self.bases[b]))
        elif op.kind == "mul":
            i, j = MUL_PAIRS[op.args[0]]
            ref = self._cached(("mul", i, j),
                               lambda: oracle.ref_mul(self.bases[i], self.bases[j]))
        else:
            p, ic, _ = op.args
            _, rhs, m, ics = LONG_PLANS[p]
            ref = self._cached(("run", p, ic),
                               lambda: oracle.ref_solve(rhs, m, ics[ic], LONG_TOP))
        return ref.truncated(n)

    def check(self, op: Op, result) -> tuple[str, str]:
        if op.kind in ("pow_int", "exp_series"):
            result = result[0]
        return _compare(self._reference(op), result)


WORKLOADS = {w.name: w for w in (Bratu, Solve, LongSeries)}
