"""One fixed grid of ``dtmseries`` invocations, run on a parent commit and on
the working tree; the invocations whose output differs, as one JSON file.

    python3 tools/diff_outputs.py --parent REV --out FILE

Run from the root of a checkout. The parent commit is exported into a
temporary directory by ``tools/bench_pairs.py``'s :func:`export`; the
change is the working tree. Each side runs the whole grid in one
subprocess, ``python3 -B tools/diff_outputs.py --side SRC``, which imports
``dtmseries.cli`` from that side's ``src`` and calls ``cli.main`` once per
invocation, with standard input, output and error in memory. Per
invocation it records the exit code (or the name of an exception that
escaped) and the SHA-256 of stdout and of stderr.

The grid (:func:`grid`), in order:

- ``bratu --lambda L --order N --grid 101 --branch B``: 25 lambdas
  log-spaced over [1e-3, 10] (both ends included), N in 3, 10, 30 and 60,
  both branches; 200 invocations.
- ``solve --eq TEXT --ic IC --order N``: every ``SOLVE_POOL`` entry of
  ``bench/workloads.py`` at each N of its ``SOLVE_ORDERS`` (10 and 80),
  imported from the working tree; 32 invocations.
- ``ops pow --m M --count [--naive]`` for M in 2, 3, 8, 9 and 20, and
  ``ops exp --count [--naive]``, each on the two series of ``OPS_INPUTS``
  read from standard input; 24 invocations.

The output holds both shas, whether the working tree differs from HEAD,
the command line, the number of invocations, each side's count of
invocations per exit code, and ``differ``: each invocation whose exit
code, stdout or stderr differs, with both sides' records. The script
prints how many differ, and each of them, and exits 0 either way.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from bench_pairs import export, revisions

ROOT = Path(__file__).resolve().parent.parent

BRATU_LAMBDAS = tuple(10.0 ** (-3 + 4 * i / 24) for i in range(25))
BRATU_ORDERS = (3, 10, 30, 60)
POW_MS = (2, 3, 8, 9, 20)
#: Two series in the file format: one with a nonzero constant term, and
#: one whose valuation is 1, which sends a power down its shift path.
OPS_INPUTS = (
    json.dumps({"order": 20, "coeffs": [1.0 / (k + 1) for k in range(21)]}),
    json.dumps({"order": 20, "coeffs": [0.0] + [(-0.5) ** k for k in range(20)]}),
)


def grid() -> list[tuple[list[str], str | None]]:
    """Every invocation, in order: its argv after ``dtmseries``, and its
    standard input (None for none)."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    try:
        from workloads import SOLVE_ORDERS, SOLVE_POOL
    finally:
        del sys.path[:2]
    invocations = [
        (["bratu", "--lambda", repr(lam), "--order", str(n), "--grid", "101",
          "--branch", branch], None)
        for lam in BRATU_LAMBDAS for n in BRATU_ORDERS for branch in ("lower", "upper")
    ]
    invocations += [
        (["solve", "--eq", text, "--ic", ",".join(map(repr, ic)), "--order", str(n)], None)
        for text, _, _, ic, _ in SOLVE_POOL for n in SOLVE_ORDERS
    ]
    ops = [["pow", "--m", str(m)] for m in POW_MS] + [["exp"]]
    invocations += [(["ops", *op, "--count", *naive], text)
                    for text in OPS_INPUTS for op in ops for naive in ([], ["--naive"])]
    return invocations


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_side(src: Path) -> None:
    """Run the invocations read as JSON from stdin with the ``dtmseries`` in
    ``src``, and write their records to stdout as one JSON list."""
    invocations = json.load(sys.stdin)
    sys.path.insert(0, str(src))
    from dtmseries import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"dtmseries imported from {cli.__file__}, not from {src}")
    records = []
    stdin = sys.stdin
    for argv, text in invocations:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(text or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses an argv
            code = exc.code
        except Exception as exc:  # an escape is a result too, compared by its type
            code = f"raised {type(exc).__name__}"
        records.append({"exit": code, "stdout": _sha(out.getvalue()),
                        "stderr": _sha(err.getvalue())})
    sys.stdin = stdin
    json.dump(records, sys.stdout)


def side_records(src: Path, invocations: list) -> list[dict]:
    """The records of ``invocations`` run in one subprocess with the
    ``dtmseries`` in ``src`` (:func:`run_side`)."""
    proc = subprocess.run([sys.executable, "-B", __file__, "--side", str(src)],
                          input=json.dumps(invocations), capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: the grid on {src} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def differing(invocations: list, parent: list[dict], change: list[dict]) -> list[dict]:
    """Each invocation whose two records differ, with both records."""
    return [{"argv": argv, "stdin": text, "parent": p, "change": c}
            for (argv, text), p, c in zip(invocations, parent, change) if p != c]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git revision of the parent commit")
    ap.add_argument("--out", type=Path, help="the JSON file to write")
    ap.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.side is not None:
        run_side(args.side)
        return 0
    if args.parent is None or args.out is None:
        ap.error("--parent and --out are required")
    try:
        revs = revisions(args.parent)
    except subprocess.CalledProcessError:
        print(f"error: {args.parent!r} names no commit", file=sys.stderr)
        return 2
    invocations = grid()
    with tempfile.TemporaryDirectory() as tmp:
        export(revs["parent"], Path(tmp))
        records = {"parent": side_records(Path(tmp, "src"), invocations),
                   "change": side_records(ROOT / "src", invocations)}
    differ = differing(invocations, records["parent"], records["change"])
    doc = {
        "parent_sha": revs["parent"],
        "head_sha": revs["head"],
        "dirty": revs["dirty"],
        "command_line": shlex.join(sys.argv),
        "invocations": len(invocations),
        "exit_codes": {side: dict(Counter(str(r["exit"]) for r in rs))
                       for side, rs in records.items()},
        "differ": differ,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}: {len(differ)} of {len(invocations)} invocations differ")
    for d in differ:
        print(f"  dtmseries {shlex.join(d['argv'])}: parent {d['parent']}, change {d['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
