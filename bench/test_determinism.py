"""The benchmark is deterministic: a seed fixes the ops and every count.

Runs the traced benchmark twice per workload with one seed and requires
identical per-layer counts; a second seed must draw different ops.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402  (needs the paths above)


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_counts(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)
    assert any(_counts(first).values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_gives_other_draw(workload):
    def draw(seed):
        rounds = WORKLOADS[workload](seed).rounds()
        return [next(rounds) for _ in range(2)]

    assert draw(1) == draw(1)
    assert draw(1) != draw(2)
