"""Command-line front end.

Subcommands:

    ops pow --m M [--naive] [--count] [--in FILE] [--out FILE]
    ops exp [--naive] [--count] [--in FILE] [--out FILE]
    solve --eq TEXT --ic LIST --order N [--out FILE]
    bratu --lambda L --order N --grid P --branch lower|upper
          [--out-csv FILE] [--out-json FILE]
    bench --op pow|exp --order N [--m M] [--reps R]

Data goes to standard output (or the --out file); diagnostics and
summaries go to standard error. Floating-point output uses shortest
round-trip formatting, so identical invocations produce byte-identical
data files. A command exits 0 on success; a :class:`DtmError` prints
``error: ...`` to standard error and exits with the error's
``exit_code`` (2 malformed input or usage, 3 domain error, 4 no series
of the requested branch converges at x = 1, its climb finds no sign
change, or it has no root within tolerance).
Argument values are checked once, by the library call that uses them;
the CLI's own checks (flag combinations, ``--reps``, ``--ic`` syntax,
unreadable or unwritable files, two outputs naming one file) raise
:class:`InvalidArgumentError`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from collections.abc import Iterator

from .bratu import _comparison
from .errors import DtmError, InvalidArgumentError
from .lang import lower, parse, run
from .powers import _pow_miller, exp_naive, exp_series, pow_int, pow_naive
from .series import Series, format_series, load_series

__all__ = ["main", "main_entry", "build_parser"]

EXIT_OK = 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtmseries",
        description="Truncated power-series engine: series operations, an "
        "ODE-to-recurrence solver, and the planar Bratu problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ops = sub.add_parser("ops", help="apply a series operation to a series file")
    p_ops.add_argument("op", choices=("pow", "exp"))
    p_ops.add_argument("--m", type=int, default=None, help="exponent (pow only)")
    p_ops.add_argument(
        "--naive", action="store_true", help="use the iterative oracle path"
    )
    p_ops.add_argument(
        "--count", action="store_true", help="print the multiply count to stderr"
    )
    p_ops.add_argument("--in", dest="infile", metavar="FILE", default=None,
                       help="series file (JSON or CSV); default: stdin")
    p_ops.add_argument("--out", dest="outfile", metavar="FILE", default=None,
                       help="output series file; default: stdout")
    p_ops.set_defaults(func=_cmd_ops)

    p_solve = sub.add_parser("solve", help="solve an explicit ODE for its coefficients")
    p_solve.add_argument("--eq", required=True, help='equation, e.g. "D(u,1) = u"')
    p_solve.add_argument("--ic", required=True,
                         help="comma-separated initial coefficients u0,...,u_{m-1}")
    p_solve.add_argument("--order", required=True, type=int, help="truncation order")
    p_solve.add_argument("--out", dest="outfile", metavar="FILE", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_bratu = sub.add_parser("bratu", help="solve the planar Bratu problem")
    p_bratu.add_argument("--lambda", dest="lam", required=True, type=float)
    p_bratu.add_argument("--order", required=True, type=int)
    p_bratu.add_argument("--grid", required=True, type=int,
                         help="number of comparison grid points")
    p_bratu.add_argument("--branch", required=True, choices=("lower", "upper"))
    p_bratu.add_argument("--out-csv", dest="out_csv", metavar="FILE", default=None,
                         help="comparison CSV; default: stdout")
    p_bratu.add_argument("--out-json", dest="out_json", metavar="FILE", default=None,
                         help="summary JSON; default: stderr")
    p_bratu.set_defaults(func=_cmd_bratu)

    p_bench = sub.add_parser("bench", help="compare recurrence vs naive operation cost")
    p_bench.add_argument("--op", required=True, choices=("pow", "exp"))
    p_bench.add_argument("--order", required=True, type=int)
    p_bench.add_argument("--m", type=int, default=None,
                         help="exponent (pow only, default 8)")
    p_bench.add_argument("--reps", type=int, default=1,
                         help="timing repetitions; fastest is reported")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


@contextlib.contextmanager
def _file_errors(verb: str, path: str) -> Iterator[None]:
    # Failing to open, decode, write or close a file is an input error.
    try:
        yield
    except (OSError, UnicodeError) as exc:
        raise InvalidArgumentError(f"cannot {verb} {path}: {exc}") from None


def _read_series(path: str | None) -> Series:
    with _file_errors("read", "standard input" if path is None else path):
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    return load_series(text)


def _write_outputs(*outputs: tuple[str, str | None, TextIO]) -> None:
    """Write each ``(text, path, stream)`` to the file at ``path``, else to ``stream``.

    Every named file is opened before any text is written, and written
    before any stream is, so a file that cannot be opened leaves no output
    anywhere, and one that cannot be written leaves none on the streams.
    Two paths that resolve to one file are refused before any is opened.
    """
    paths = [os.path.realpath(path) for _, path, _ in outputs if path is not None]
    if len(set(paths)) < len(paths):
        raise InvalidArgumentError(f"two outputs name the same file {max(paths, key=paths.count)}")
    with contextlib.ExitStack() as stack:
        files = []
        for text, path, _ in outputs:
            if path is not None:
                with _file_errors("write", path):
                    fh = stack.enter_context(open(path, "w", encoding="utf-8"))
                files.append((text, path, fh))
        for text, path, fh in files:
            with _file_errors("write", path):
                fh.write(text)
                fh.close()
    for text, path, stream in outputs:
        if path is None:
            stream.write(text)


def _cmd_ops(args: argparse.Namespace) -> int:
    if args.op == "pow":
        if args.m is None:
            raise InvalidArgumentError("ops pow requires --m")
    elif args.m is not None:
        raise InvalidArgumentError("--m is only meaningful for ops pow")
    series = _read_series(args.infile)
    if args.op == "pow":
        if args.naive:
            result, count = pow_naive(series, args.m)
        else:
            result, count = pow_int(series, args.m)
    elif args.naive:
        result, count = exp_naive(series)
    else:
        result, count = exp_series(series)
    if args.count:
        print(f"multiplies: {count.multiplies}", file=sys.stderr)
    _write_outputs((format_series(result) + "\n", args.outfile, sys.stdout))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    equation = parse(args.eq)
    try:
        initial = [float(tok) for tok in args.ic.split(",")]
    except ValueError:
        raise InvalidArgumentError(
            f"--ic must be a comma-separated list of numbers, got {args.ic!r}"
        ) from None
    solution = run(lower(equation, args.order), initial)
    _write_outputs((format_series(solution) + "\n", args.outfile, sys.stdout))
    return EXIT_OK


def _cmd_bratu(args: argparse.Namespace) -> int:
    solution, theta, rows = _comparison(args.lam, args.order, args.grid, args.branch)
    csv = "x,u_dtm,u_analytic,abs_err\n" + "".join("%r,%r,%r,%r\n" % row for row in rows)
    summary = {
        "lambda": args.lam,
        "gamma": solution.gamma,
        "theta": theta,
        "residual": solution.residual,
        "max_abs_err": max(row[3] for row in rows),
        "order": args.order,
    }
    _write_outputs(
        (csv, args.out_csv, sys.stdout),
        (json.dumps(summary) + "\n", args.out_json, sys.stderr),
    )
    return EXIT_OK


def _bench_series(order: int) -> Series:
    # Fixed, well-conditioned input: nonzero constant term, decaying tail.
    return Series(1.0 / (k + 1) for k in range(order + 1))


def _time_best(fn, reps: int) -> int:
    best = None
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        if best is None or dt < best:
            best = dt
    return best


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise InvalidArgumentError("--reps must be at least 1")
    if args.op == "exp" and args.m is not None:
        raise InvalidArgumentError("--m is only meaningful for bench --op pow")
    series = _bench_series(args.order)
    if args.op == "pow":
        m: int | None = 8 if args.m is None else args.m
        count_rec = _pow_miller(series, m)[1].multiplies
        count_naive = pow_naive(series, m)[1].multiplies
        time_rec = _time_best(lambda: _pow_miller(series, m), args.reps)
        time_naive = _time_best(lambda: pow_naive(series, m), args.reps)
    else:
        m = None
        count_rec = exp_series(series)[1].multiplies
        count_naive = exp_naive(series)[1].multiplies
        time_rec = _time_best(lambda: exp_series(series), args.reps)
        time_naive = _time_best(lambda: exp_naive(series), args.reps)
    report = {
        "op": args.op,
        "order": args.order,
        "m": m,
        "count_recurrence": count_rec,
        "count_naive": count_naive,
        "ratio": (count_naive / count_rec) if count_rec else None,
        "time_recurrence_ns": time_rec,
        "time_naive_ns": time_naive,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process; ``main`` only parses with it and never changes it.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DtmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
