"""Spans and counts around the public functions of dtmseries.

The program itself has no tracing, so this module rebinds each traced
function to a timing wrapper in every ``dtmseries`` module namespace that
holds it. A caller that looks the function up through any of those modules
(``powers.miller_step`` and ``lang.miller_step`` are the same function)
then goes through the wrapper. ``uninstall`` puts the originals back.

Each call records a span (name, start, end, parent span, op id). A layer's
self time is its duration minus the time of the traced calls it makes.
The kernels that accept a multiply counter (``miller_step``, ``exp_step``,
``mul``) are handed a counter owned by this module, and the multiplies are
also added to any counter the caller passed, so the program sees the same
counts as without tracing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from dtmseries import bratu, cli, lang, powers, series

#: (span name, module that defines the function, attribute).
TRACED = (
    ("cli.main", cli, "main"),
    ("bratu.shoot", bratu, "shoot"),
    ("bratu.boundary_residual", bratu, "boundary_residual"),
    ("bratu.bratu_coeffs", bratu, "bratu_coeffs"),
    ("bratu.theta_roots", bratu, "analytic_theta_roots"),
    ("series.evaluate", series, "evaluate"),
    ("series.mul", series, "mul"),
    ("lang.parse", lang, "parse"),
    ("lang.lower", lang, "lower"),
    ("lang.run", lang, "run"),
    ("powers.pow_int", powers, "pow_int"),
    ("powers.exp_series", powers, "exp_series"),
    ("powers.miller_step", powers, "miller_step"),
    ("powers.exp_step", powers, "exp_step"),
)

#: Kernels whose multiplies are tallied, with the position of their
#: optional counter argument.
COUNTED = {"powers.miller_step": 4, "powers.exp_step": 3, "series.mul": 2}


class Tally:
    """Multiply counter handed to the kernels (duck-types ``OpCount``)."""

    __slots__ = ("multiplies",)

    def __init__(self):
        self.multiplies = 0


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dtmseries" or name.startswith("dtmseries."))]


class Tracer:
    """Collects spans, per-op self times and per-layer counts.

    Self times are always collected. ``recording`` can be switched off
    between ops, so that only one pass over a fixed batch of ops stores
    spans and counts, which then are exact totals for that batch.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.recording = True
        self.calls: Counter = Counter()
        self.mults: Counter = Counter()
        self.op_self_ns: Counter = Counter()
        self.op_id = -1
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, attr in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_self_ns.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        count_at = COUNTED.get(name)
        tally = Tally()

        def enter():
            parent = stack[-1][2] if stack else -1
            span_id = len(self.spans) if self.recording else -1
            if span_id >= 0:
                self.spans.append(None)
            frame = [clock(), 0, span_id, parent]
            stack.append(frame)
            return frame

        def leave(frame):
            end = clock()
            stack.pop()
            start, child_ns, span_id, parent = frame
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.op_self_ns[name] += dur - child_ns
            if span_id >= 0:
                self.calls[name] += 1
                self.spans[span_id] = (name, start, end, parent, self.op_id)

        if count_at is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if len(args) > count_at:
                    caller_count = args[count_at]
                    args = args[:count_at]
                else:
                    caller_count = kwargs.pop("count", None)
                before = tally.multiplies
                frame = enter()
                try:
                    return fn(*args, count=tally, **kwargs)
                finally:
                    leave(frame)
                    done = tally.multiplies - before
                    if self.recording:
                        self.mults[name] += done
                    if caller_count is not None:
                        caller_count.multiplies += done

        return wrapper

    def write_spans(self, path) -> None:
        """Write the stored spans as JSON lines (times in ns, parent -1 = op)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op_id}))
                fh.write("\n")

