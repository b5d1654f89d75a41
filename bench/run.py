"""Benchmark for dtmseries: one command, three workloads, two modes.

    python3 bench/run.py --workload bratu|solve|long_series --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in a fresh single-threaded worker process (``worker.py``)
with a closed loop: one caller, and the next op starts only after the
previous one returns. Set-up is timed from this process: for an untraced
run a worker is started ``SETUP_SAMPLES`` times, and each time the clock
runs from the start of the process until it reports its first op ready
(interpreter, ``import dtmseries``, input generation and set-up lowering).
Half of the extra starts come before the measured run and half after it,
so the samples span the run. ``setup_s`` is the median of those samples.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run. The lines before it are a readable report: every metric
with its unit and sample count, the failures by class, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bratu", "solve", "long_series")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A worker failed, timed out or printed no result."""


def _spawn(args: list[str]) -> subprocess.Popen:
    # A fixed hash seed keeps set and dict layouts the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )


def _start_and_wait_ready(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds until it printed ``ready``."""
    t0 = time.perf_counter()
    proc = _spawn(args)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setup = []

    def time_setups(count: int) -> None:
        for _ in range(count):
            proc, elapsed = _start_and_wait_ready(base + ["--setup-only"])
            _finish(proc)
            setup.append(elapsed)

    extra = 0 if trace else SETUP_SAMPLES - 1
    time_setups(extra // 2)
    proc, elapsed = _start_and_wait_ready(
        base + ["--seconds", str(seconds), "--trace", str(trace)])
    setup.append(elapsed)
    out = _finish(proc)
    time_setups(extra - extra // 2)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **result["metrics"],
        }
    result["setup_samples"] = len(setup)
    return result


def report(workload: str, result: dict) -> None:
    env = result["env"]
    print(f"# dtmseries benchmark: workload={workload} seed={env['seed']} "
          f"python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r}")
    n_ok = result.get("ok_ops")
    for name, m in result["metrics"].items():
        note = ""
        if name.startswith("op_ms."):
            note = f"  (over {n_ok} correct ops)"
        elif name == "setup_s":
            note = f"  (median of {result['setup_samples']} starts)"
        print(f"#   {name:28s} {m['value']:.6g} {m['unit']}{note}")
    if "raw" in result:
        probe_ms, n_probes = result["probe_ms"]
        print(f"#   wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items())
              + f"; probe median {probe_ms:.4f} ms over {n_probes} readings")
    attempted, failed = result["attempted"], result["failed"]
    print(f"#   attempted={attempted} failed={failed} fail_frac={failed / attempted:.4f}")
    if "repeat_share" in result:
        print(f"#   share of ops repeating an earlier input: {result['repeat_share']:.4f}")
    for cls, count in sorted(result["failure_classes"].items()):
        print(f"#   failures {cls}: {count}")
    for desc, status, _, detail in result["failures"]:
        print(f"#   failed op {desc} status={status} {detail}")
    defects = result["known_defects"]
    print(f"# known defects (run once, untimed, not in attempted/failed): "
          f"{defects['failed']} of {defects['attempted']} ops still fail")
    for cls, count in sorted(defects["classes"].items()):
        print(f"#   {cls}: {count}")
    for desc, status, _, detail in defects["failures"]:
        print(f"#   defect op {desc} status={status} {detail}")
    print(f"# correct={result['correct']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (ROOT / "src" / "dtmseries" / "__init__.py").is_file():
        print(f"error: no src/dtmseries under {ROOT}; run from a dtmseries checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
