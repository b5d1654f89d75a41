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
seed 3, whose exact counts are compared key by key, as are the statuses
of the known-defect ops it reports as failing.

The output holds, per workload and end-to-end metric, every run, each
side's median and quartiles (``statistics.quantiles(n=4,
method='inclusive')``), the ratio of the medians and the number of pairs
the change wins, ties counting for neither. Two verdicts follow from
those: ``gain_shown`` when the change wins at least 9 in 10 of the pairs
and its median is better than the parent's by more than the parent's
interquartile range, and ``within_bound`` when the change's median is
worse than the parent's by no more than the metric's relative ``bound``
in ``BENCHMARK.json``. A third, ``unresolved``, marks a metric whose
parent runs spread wider than the bound allows (q3 - q1 above ``bound``
times the parent's median), unless every change run is better than every
parent run: there, neither verdict tells a change from the spread. Per
workload it also holds the ops each run attempted, beside the totals. It is
written to ``.benchmarks/BENCH_<pr>.json``, with the full sha of the
parent, the sha of HEAD, whether the working tree differs from HEAD, and
the script's own command line, and ``src_lines``, the number of lines in
``src/**/*.py`` on each side; if that file already exists, the script
refuses to run, before the first pair. The file ends with ``summary``, the
(workload, metric) pairs that show ``gain_shown`` and those that are not
``within_bound``, and the script prints it and ``src_lines`` as its last
lines.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import shlex
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
DEFECT_RE = re.compile(r"^#   defect op (.+?) status=(\S+)", re.MULTILINE)


def defect_statuses(stdout: str) -> dict[str, str]:
    """``{desc: status}`` of the known-defect ops that a ``bench/run.py`` run
    reports as still failing, from its ``#   defect op`` lines."""
    return dict(DEFECT_RE.findall(stdout))


def bench(root: Path, workload: str, seed: int, seconds: int,
          trace: int) -> tuple[dict, dict, dict]:
    """One ``bench/run.py`` run in ``root``: its result line, its machine and
    its failing known-defect ops (:func:`defect_statuses`)."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    env = ENV_RE.search(lines[0])
    machine = {"python": env[1], "nproc": int(env[2]), "cpu": env[3]} if env else {}
    return json.loads(lines[-1]), machine, defect_statuses(proc.stdout)


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def compare(results: dict, end_to_end: list[dict]) -> dict:
    """Per-metric summaries and verdicts of one workload's pairs.

    ``end_to_end`` holds the ``BENCHMARK.json`` entries, each with its
    ``name``, ``better`` ("lower" or "higher") and relative ``bound``.
    """
    metrics = {}
    for spec in end_to_end:
        name, unit_better = spec["name"], spec["better"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1 if unit_better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        parent, change = summary(runs["parent"]), summary(runs["change"])
        # How much worse the change's median is than the parent's (negative: better).
        worse = sign * (change["median"] - parent["median"])
        allowed = spec["bound"] * abs(parent["median"])
        beats_all = all(sign * (c - p) < 0 for c in runs["change"] for p in runs["parent"])
        metrics[name] = {
            "unit": results["parent"][0]["metrics"][name]["unit"],
            "better": unit_better,
            "parent": parent,
            "change": change,
            "change_over_parent": round(change["median"] / parent["median"], 4),
            "change_better_pairs": wins,
            "gain_shown": (10 * wins >= 9 * len(runs["parent"])
                           and -worse > parent["q3"] - parent["q1"]),
            "within_bound": worse <= allowed,
            "unresolved": parent["q3"] - parent["q1"] > allowed and not beats_all,
            "runs": {side: [round(v, 6) for v in runs[side]] for side in SIDES},
        }
    return metrics


def workload_entry(seeds: list[int], results: dict, end_to_end: list[dict]) -> dict:
    """One workload's entry: its totals over each side's runs, the ops each
    run attempted, and :func:`compare`'s metrics.

    A faster side attempts more ops in a run of fixed length, and the
    benchmark's memory grows with the ops it has seen, so ``attempted_runs``
    lets a reader tell that from the program's own memory.
    """
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "correct": {s: all(r["correct"] for r in results[s]) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in results[s]) for s in SIDES},
        "attempted_runs": {s: [r["attempted"] for r in results[s]] for s in SIDES},
        "failed": {s: sum(r["failed"] for r in results[s]) for s in SIDES},
        "metrics": compare(results, end_to_end),
    }


def verdicts(workloads: dict) -> dict:
    """``{"gain_shown": [...], "not_within_bound": [...]}``, each a list of
    ``"<workload> <metric>"`` over the :func:`workload_entry` of each
    workload, in order."""
    pairs = [(f"{w} {name}", m) for w, entry in workloads.items()
             for name, m in entry["metrics"].items()]
    return {"gain_shown": [key for key, m in pairs if m["gain_shown"]],
            "not_within_bound": [key for key, m in pairs if not m["within_bound"]]}


def traced(roots: dict, workload: str) -> dict:
    """Each side's traced counts and known-defect statuses, and where they differ.

    ``defects_differ`` lists every known-defect op whose status differs
    between the sides or that fails on one side only.
    """
    counts, defects = {}, {}
    for side in SIDES:
        result, _, defects[side] = bench(roots[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
        counts[side] = {name: m["value"] for name, m in result["metrics"].items()
                        if m["unit"] == "count"}
    counts["differs"] = [k for k in counts["parent"] if counts["parent"][k] != counts["change"][k]]
    parent, change = defects["parent"], defects["change"]
    counts["defects"] = defects
    counts["defects_differ"] = [d for d in {**parent, **change} if parent.get(d) != change.get(d)]
    return counts


def known_workloads() -> tuple[str, ...]:
    """The ``WORKLOADS`` tuple that ``bench/run.py`` accepts for ``--workload``."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets):
            return tuple(ast.literal_eval(node.value))
    raise SystemExit("error: bench/run.py defines no WORKLOADS")


def src_lines(root: Path) -> int:
    """The number of lines, as ``wc -l`` counts them, in ``src/**/*.py`` under ``root``."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src").rglob("*.py"))


def revisions(parent: str) -> dict:
    """The full shas of the commit ``parent`` names and of HEAD, and
    ``dirty``: whether the working tree, untracked files included, differs
    from HEAD. Raises ``subprocess.CalledProcessError`` for a revision that
    names no commit."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    return {"parent": git("rev-parse", "--verify", f"{parent}^{{commit}}"),
            "head": git("rev-parse", "--verify", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


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
    workloads = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(workloads) - set(known_workloads()))
    if unknown:
        print(f"error: bench/run.py has no workload {', '.join(map(repr, unknown))}",
              file=sys.stderr)
        return 2
    out = ROOT / ".benchmarks" / f"BENCH_{args.pr}.json"
    if out.exists():
        print(f"error: {out} exists; move it away to run the pairs again", file=sys.stderr)
        return 2
    try:
        revs = revisions(args.parent)
    except subprocess.CalledProcessError:
        print(f"error: {args.parent!r} names no commit", file=sys.stderr)
        return 2
    if subprocess.run(["git", "diff", "--quiet", revs["parent"], "--", "bench"],
                      cwd=ROOT).returncode:
        print(f"error: bench/ differs from {args.parent}; pairs need the same benchmark",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", revs["parent"]], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        roots = {"parent": Path(tmp), "change": ROOT}
        results = {w: {side: [] for side in SIDES} for w in workloads}
        machine = {}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    result, machine, _ = bench(roots[side], w, seed, seconds, 0)
                    results[w][side].append(result)
                    print(f"pair {i + 1} seed {seed} {w} {side}: " + ", ".join(
                        f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()),
                        flush=True)
        doc = {
            "title": args.title,
            "command_line": shlex.join(sys.argv),
            "parent_sha": revs["parent"],
            "head_sha": revs["head"],
            "dirty": revs["dirty"],
            "src_lines": {side: src_lines(roots[side]) for side in SIDES},
            "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
            "run_seconds": seconds,
            "method": ("parent and change each run from their own checkout with the same, "
                       "unmodified bench/; pairs alternate which side runs first (parent first "
                       "on the 1st, 3rd, ... pair); quartiles are statistics.quantiles(n=4, "
                       "method='inclusive') over the runs of one side; change_better_pairs "
                       "counts pairs where the change is better, ties counting for neither; "
                       "gain_shown: the change wins >= 9/10 of the pairs and its median is "
                       "better by more than the parent's q3 - q1; within_bound: the change's "
                       "median is worse than the parent's by at most bound x the parent's "
                       "median; unresolved: the parent's q3 - q1 exceeds bound x its median "
                       "and not every change run is better than every parent run"),
            "traced": {
                "command": (f"python3 bench/run.py --workload W --seed {TRACE_SEED} "
                            f"--seconds {TRACE_SECONDS} --trace 1"),
                "note": ("exact counts over the traced batch; defects: {op: status} of the "
                         "known-defect ops each side reports as failing"),
                **{w: traced(roots, w) for w in workloads},
            },
            "workloads": {w: workload_entry(args.seeds, results[w], spec["end_to_end"])
                          for w in workloads},
            "machine": machine,
        }
    doc["summary"] = verdicts(doc["workloads"])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    for verdict, keys in doc["summary"].items():
        print(f"{verdict}: {', '.join(keys) or 'none'}")
    print("src_lines: " + ", ".join(f"{side} {n}" for side, n in doc["src_lines"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
