"""Alternating parent/change pairs of the benchmark, written as one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr N --parent REV --seeds 201-210 [--title TEXT]

Run from the root of a checkout. The parent commit is exported with
``git archive`` into a temporary directory; the change is the working
tree. Both sides run their own copy of ``bench/run.py``, which must be the
same on both (the script refuses to run otherwise), for the run length
that ``BENCHMARK.json`` sets, on the workloads it lists (each must be one
that ``bench/run.py`` accepts). Each seed makes one pair per workload, and
the pairs alternate which side runs first: the parent on the 1st, 3rd,
... pair. Every side also makes one traced run at
seed 3, whose exact counts are compared key by key.

The output holds, per workload and end-to-end metric, every run, each
side's median and quartiles (``statistics.quantiles(n=4,
method='inclusive')``), the ratio of the medians and the number of pairs
the change wins, ties counting for neither. It is written to
``.benchmarks/BENCH_<pr>.json``.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SEED = 3
TRACE_SECONDS = 3
ENV_RE = re.compile(r"python=(\S+) nproc=(\d+) cpu='(.*)'")


def bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One ``bench/run.py`` run in ``root``: its result line and its machine."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    env = ENV_RE.search(lines[0])
    machine = {"python": env[1], "nproc": int(env[2]), "cpu": env[3]} if env else {}
    return json.loads(lines[-1]), machine


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def compare(results: dict, better: dict) -> dict:
    """Per-metric summaries of one workload's pairs."""
    metrics = {}
    for name, unit_better in better.items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1 if unit_better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        parent, change = summary(runs["parent"]), summary(runs["change"])
        metrics[name] = {
            "unit": results["parent"][0]["metrics"][name]["unit"],
            "better": unit_better,
            "parent": parent,
            "change": change,
            "change_over_parent": round(change["median"] / parent["median"], 4),
            "change_better_pairs": wins,
            "runs": {side: [round(v, 6) for v in runs[side]] for side in SIDES},
        }
    return metrics


def traced(roots: dict, workload: str) -> dict:
    counts = {}
    for side in SIDES:
        result, _ = bench(roots[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
        counts[side] = {name: m["value"] for name, m in result["metrics"].items()
                        if m["unit"] == "count"}
    counts["differs"] = [k for k in counts["parent"] if counts["parent"][k] != counts["change"][k]]
    return counts


def known_workloads() -> tuple[str, ...]:
    """The ``WORKLOADS`` tuple that ``bench/run.py`` accepts for ``--workload``."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets):
            return tuple(ast.literal_eval(node.value))
    raise SystemExit("error: bench/run.py defines no WORKLOADS")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--parent", required=True, help="git revision of the parent commit")
    ap.add_argument("--seeds", required=True, type=seed_range, help="e.g. 201-210")
    ap.add_argument("--title", default="")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        print("error: quartiles need at least two seeds", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(workloads) - set(known_workloads()))
    if unknown:
        print(f"error: bench/run.py has no workload {', '.join(map(repr, unknown))}",
              file=sys.stderr)
        return 2
    if subprocess.run(["git", "diff", "--quiet", args.parent, "--", "bench"], cwd=ROOT).returncode:
        print(f"error: bench/ differs from {args.parent}; pairs need the same benchmark",
              file=sys.stderr)
        return 2
    out = ROOT / ".benchmarks" / f"BENCH_{args.pr}.json"
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        roots = {"parent": Path(tmp), "change": ROOT}
        results = {w: {side: [] for side in SIDES} for w in workloads}
        machine = {}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    result, machine = bench(roots[side], w, seed, seconds, 0)
                    results[w][side].append(result)
                    print(f"pair {i + 1} seed {seed} {w} {side}: " + ", ".join(
                        f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()),
                        flush=True)
        doc = {
            "title": args.title,
            "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
            "run_seconds": seconds,
            "method": ("parent and change each run from their own checkout with the same, "
                       "unmodified bench/; pairs alternate which side runs first (parent first "
                       "on the 1st, 3rd, ... pair); quartiles are statistics.quantiles(n=4, "
                       "method='inclusive') over the runs of one side; change_better_pairs "
                       "counts pairs where the change is better, ties counting for neither"),
            "traced": {
                "command": (f"python3 bench/run.py --workload W --seed {TRACE_SEED} "
                            f"--seconds {TRACE_SECONDS} --trace 1"),
                "note": "exact counts over the traced batch",
                **{w: traced(roots, w) for w in workloads},
            },
            "workloads": {
                w: {
                    "seeds": args.seeds,
                    "pairs": len(args.seeds),
                    "correct": {s: all(r["correct"] for r in results[w][s]) for s in SIDES},
                    "attempted": {s: sum(r["attempted"] for r in results[w][s]) for s in SIDES},
                    "failed": {s: sum(r["failed"] for r in results[w][s]) for s in SIDES},
                    "metrics": compare(results[w], better),
                }
                for w in workloads
            },
            "machine": machine,
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
