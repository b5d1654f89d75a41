"""One workload in one fresh process: set up, run the closed loop, report.

Started by ``run.py``; not meant to be run by hand. It prints ``ready`` as
soon as its first op is ready (the parent times set-up from its own clock),
then, unless ``--setup-only`` is given, runs the workload and prints one
JSON line with the results.

Untraced (``--trace 0``): one caller runs ops back to back; each op is
timed alone, then checked against the oracle outside the timed region.
Between ops a fixed probe loop reads the machine's speed. The loop stops
once the time outside checks and probes reaches ``--seconds``.

Traced (``--trace 1``): the first ``TRACE_ROUNDS`` rounds of the draw form
a fixed batch. The batch is run alternately untraced and traced until
``--seconds`` have passed (at least once each). Counts and spans come from
the first traced pass only, so they are exact totals for a fixed set of
ops; self times are medians over every traced op.

In both modes the workload's known-defect ops (inputs the commit that added
the benchmark answers wrongly) are then run and checked once, untimed, and
reported apart from the timed ops.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402  (both need the src path above)
from workloads import OK, WORKLOADS  # noqa: E402

#: Rounds in the fixed batch of a traced run.
TRACE_ROUNDS = {"bratu": 1, "solve": 32, "long_series": 1}

#: Layers timed per op in a traced run: metric name -> span name.
SELF_MS = {
    "bratu.shoot.ms": "bratu.shoot",
    "bratu.bratu_coeffs.ms": "bratu.bratu_coeffs",
    "cli.main.self_ms": "cli.main",
    "bratu.theta_roots.ms": "bratu.theta_roots",
    "series.evaluate.ms": "series.evaluate",
    "lang.parse.ms": "lang.parse",
    "lang.lower.ms": "lang.lower",
    "lang.run.self_ms": "lang.run",
    "powers.miller_step.ms": "powers.miller_step",
    "powers.exp_step.ms": "powers.exp_step",
    "powers.pow_int.self_ms": "powers.pow_int",
    "powers.exp_series.self_ms": "powers.exp_series",
    "series.mul.ms": "series.mul",
}
CALLS = {
    "series.evaluate.calls": "series.evaluate",
    "lang.run.calls": "lang.run",
    "powers.miller_step.calls": "powers.miller_step",
    "powers.exp_step.calls": "powers.exp_step",
    "series.mul.calls": "series.mul",
}
MULTS = {
    "powers.miller_step.mults": "powers.miller_step",
    "powers.exp_step.mults": "powers.exp_step",
    "series.mul.mults": "series.mul",
}


#: Failing ops listed by name in the output.
MAX_LISTED = 16


class Histogram:
    """Op times in log-spaced bins 0.1% wide.

    Its memory does not grow with the number of ops, so the worker's peak
    memory measures the program rather than the benchmark's bookkeeping.
    Quantiles are exact to within a bin (0.1%).
    """

    _STEP = math.log(1.001)

    def __init__(self):
        self.counts: Counter = Counter()
        self.n = 0

    def add(self, ns: float) -> None:
        self.counts[int(math.log(max(ns, 1.0)) / self._STEP)] += 1
        self.n += 1

    def quantile(self, q: float) -> float:
        """The q-quantile, placed inside its bin by linear interpolation on rank."""
        rank = q * self.n
        seen = 0
        for b in sorted(self.counts):
            count = self.counts[b]
            if seen + count >= rank:
                return math.exp((b + (rank - seen) / count) * self._STEP)
            seen += count
        raise ValueError("empty histogram")


class Ledger:
    """Outcome of every op: status counts and failures."""

    def __init__(self):
        self.status = Counter()
        self.failure_classes = Counter()
        self.failures: list[tuple] = []
        self.seen: set = set()
        self.repeats = 0

    def record(self, op, status: str, detail) -> None:
        key = (op.kind, op.args)
        if key in self.seen:
            self.repeats += 1
        self.seen.add(key)
        self.status[status] += 1
        if status == OK:
            return
        self.failure_classes[f"{status}:{op.known or 'UNEXPECTED'}"] += 1
        if len(self.failures) < MAX_LISTED:
            self.failures.append((op.describe(), status, op.known, str(detail)[:120]))

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.status[OK]


def run_op(wl, op, ledger: Ledger) -> tuple[int, int, bool]:
    """Execute (timed) and check (untimed) one op.

    Returns the op's ns, the check's ns and whether the op was correct.
    """
    t0 = time.perf_counter_ns()
    status, payload = wl.execute(op)
    t1 = time.perf_counter_ns()
    if status == OK:
        status, payload = wl.check(op, payload)
    t2 = time.perf_counter_ns()
    ledger.record(op, status, payload)
    return t1 - t0, t2 - t1, status == OK


def _ops(rounds):
    for batch in rounds:
        yield from batch


_PROBE_INPUT = [1.0 / (k + 1) for k in range(120)]
PROBE_EVERY_NS = 100_000_000
#: Probe time (ms) that defines the reference speed: about what the probe
#: takes on an uncontended 2-vCPU Intel Xeon sandbox under Python 3.11.
PROBE_REF_MS = 0.3


def _probe_once() -> int:
    a = _PROBE_INPUT
    t0 = time.perf_counter_ns()
    acc = 0.0
    for k in range(len(a)):
        s = 0.0
        for j in range(k + 1):
            s += a[j] * a[k - j]
        acc += s
    return time.perf_counter_ns() - t0


def probe() -> int:
    """Machine-speed reading: median time (ns) of three runs of a fixed
    interpreted Cauchy sum, code of the benchmark's own that no change to
    the program can speed up."""
    return statistics.median(_probe_once() for _ in range(3))


class Loop:
    """Result of an untraced run: latency histograms and totals."""

    def __init__(self):
        self.ledger = Ledger()
        self.ok_ref = Histogram()
        self.ok_raw = Histogram()
        self.ref_ns = 0.0
        self.wall_s = 0.0
        self.probes: list[int] = []


def measure(wl, rounds, seconds: float) -> Loop:
    """Closed loop for ``seconds`` of time outside oracle checks and probes.

    The machine this runs on changes speed by up to 1.6x within seconds
    (other tenants), and the fixed probe slows with it. So every
    ``PROBE_EVERY_NS`` the probe is read between ops, and each op's time
    is scaled to reference speed by PROBE_REF_MS over the mean of the
    readings just before and just after it.
    """
    loop = Loop()
    pending: list[tuple[int, bool]] = []

    def settle(reading: int) -> None:
        scale = PROBE_REF_MS * 1e6 / (0.5 * (loop.probes[-1] + reading))
        for dur, ok in pending:
            loop.ref_ns += dur * scale
            if ok:
                loop.ok_ref.add(dur * scale)
                loop.ok_raw.add(dur)
        pending.clear()
        loop.probes.append(reading)

    budget = int(seconds * 1e9)
    aside_ns = 0
    loop.probes.append(probe())
    start = last_probe = time.perf_counter_ns()
    for op in _ops(rounds):
        dur, check_ns, ok = run_op(wl, op, loop.ledger)
        pending.append((dur, ok))
        aside_ns += check_ns
        now = time.perf_counter_ns()
        if now - last_probe >= PROBE_EVERY_NS:
            settle(probe())
            last_probe = time.perf_counter_ns()
            aside_ns += last_probe - now
        if time.perf_counter_ns() - start - aside_ns >= budget:
            break
    loop.wall_s = (time.perf_counter_ns() - start - aside_ns) / 1e9
    settle(probe())
    return loop


def _median_ms(values_ns) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def untraced_metrics(loop: Loop) -> dict:
    ok = loop.ok_ref.n
    if ok < 10:
        raise SystemExit(f"only {ok} correct ops; too few to report latency")
    return {
        "op_ms.p50": (loop.ok_ref.quantile(0.5) / 1e6, "ref_ms"),
        "op_ms.p90": (loop.ok_ref.quantile(0.9) / 1e6, "ref_ms"),
        "ok_per_s": (ok / (loop.ref_ns / 1e9), "1/ref_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_latency(loop: Loop) -> dict:
    """The same latency and throughput in plain wall-clock units."""
    return {"op_ms.p50": loop.ok_raw.quantile(0.5) / 1e6,
            "op_ms.p90": loop.ok_raw.quantile(0.9) / 1e6,
            "ok_per_s": loop.ok_raw.n / loop.wall_s}


def traced_metrics(wl, batch, seconds: float, spans_path: Path) -> tuple[Ledger, dict]:
    tracer = Tracer()
    ledger = Ledger()
    first_ok = 0
    self_ns: dict[str, list[int]] = {span: [] for span in SELF_MS.values()}
    walls: dict[bool, list[int]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            first_traced = traced and not walls[True]
            if traced:
                tracer.recording = first_traced
                tracer.install()
            wall = 0
            try:
                for op_id, op in enumerate(batch):
                    tracer.begin_op(op_id)
                    dur, _, ok = run_op(wl, op, ledger)
                    wall += dur
                    if traced:
                        for span, ns in tracer.op_self_ns.items():
                            if span in self_ns:
                                self_ns[span].append(ns)
                    if first_traced:
                        first_ok += ok
            finally:
                tracer.uninstall()
            walls[traced].append(wall)
        if time.perf_counter() - start >= seconds:
            break

    tracer.write_spans(spans_path)
    evals = tracer.calls["bratu.boundary_residual"]
    metrics = {
        "bratu.residual_evals": (evals, "count"),
        "bratu.evals_per_ok": (evals / first_ok if evals and first_ok else 0.0, "count"),
    }
    for name, span in SELF_MS.items():
        metrics[name] = (_median_ms(self_ns[span]), "ms")
    for name, span in CALLS.items():
        metrics[name] = (tracer.calls[span], "count")
    for name, span in MULTS.items():
        metrics[name] = (tracer.mults[span], "count")
    overhead = statistics.median(walls[True]) / statistics.median(walls[False])
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    return ledger, metrics


def check_known_defects(wl) -> Ledger:
    """Run and check each of the workload's known-defect ops once."""
    ledger = Ledger()
    for op in wl.known_defects():
        run_op(wl, op, ledger)
    return ledger


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import dtmseries

    if Path(dtmseries.__file__).resolve().parent != ROOT / "src" / "dtmseries":
        raise SystemExit(f"dtmseries imported from {dtmseries.__file__}, not this checkout")
    wl = WORKLOADS[args.workload](args.seed)
    rounds = wl.rounds()
    first = next(rounds)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        batch = list(_ops([first] + [next(rounds) for _ in range(TRACE_ROUNDS[wl.name] - 1)]))
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        ledger, metrics = traced_metrics(wl, batch, args.seconds, spans_path)
        extra = {"batch_ops": len(batch), "spans": str(spans_path.relative_to(ROOT))}
    else:
        loop = measure(wl, itertools.chain([first], rounds), args.seconds)
        ledger = loop.ledger
        metrics = untraced_metrics(loop)
        extra = {"wall_s": loop.wall_s, "ok_ops": loop.ok_ref.n, "raw": raw_latency(loop),
                 "probe_ms": [statistics.median(loop.probes) / 1e6, len(loop.probes)],
                 "repeat_share": ledger.repeats / ledger.attempted}
    defects = check_known_defects(wl)
    if args.trace:
        metrics["defects.failing"] = (defects.failed, "count")

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failure_classes": dict(ledger.failure_classes),
        "failures": ledger.failures,
        "known_defects": {"attempted": defects.attempted, "failed": defects.failed,
                          "classes": dict(defects.failure_classes),
                          "failures": defects.failures},
        "env": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                "python": sys.version.split()[0], "seed": args.seed},
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
