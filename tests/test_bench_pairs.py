"""tools/bench_pairs.py runs the workloads that BENCHMARK.json lists."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_declared_workloads_are_known_to_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names and set(names) <= set(_bench_pairs().known_workloads())


def test_unknown_workload_is_rejected_before_any_run(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text('WORKLOADS = ("bratu", "solve")\n')
    spec = {"run_seconds": 1, "end_to_end": [],
            "workloads": [{"name": "solve"}, {"name": "nope"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--pr", "1", "--parent", "HEAD",
                                      "--seeds", "1-2"])
    assert bench_pairs.main() == 2
    assert "no workload 'nope'" in capsys.readouterr().err
    assert not (tmp_path / ".benchmarks").exists()


def _verdicts(parent, change, better="higher", bound=0.24):
    def runs(values):
        return [{"metrics": {"m": {"value": v, "unit": "u"}}} for v in values]

    spec = [{"name": "m", "better": better, "bound": bound}]
    result = _bench_pairs().compare({"parent": runs(parent), "change": runs(change)}, spec)["m"]
    return result["change_better_pairs"], result["gain_shown"], result["within_bound"]


PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_gain_shown_when_nine_in_ten_pairs_win_beyond_the_parent_spread():
    # Parent quartiles 99.125 and 100.875: an IQR of 1.75 against a gain of 10.
    change = [110.0] * 9 + [99.0]
    assert _verdicts(PARENT, change) == (9, True, True)


def test_no_gain_with_eight_wins_in_ten():
    change = [110.0] * 8 + [98.0, 99.0]
    assert _verdicts(PARENT, change) == (8, False, True)


def test_no_gain_inside_the_parent_spread():
    # Every pair wins, but the medians differ by less than the parent's IQR.
    change = [v + 0.5 for v in PARENT]
    assert _verdicts(PARENT, change) == (10, False, True)


def test_a_loss_is_no_gain_and_is_judged_against_the_bound():
    assert _verdicts(PARENT, [v * 0.8 for v in PARENT]) == (0, False, True)
    assert _verdicts(PARENT, [v * 0.7 for v in PARENT]) == (0, False, False)


def test_lower_is_better_reverses_both_verdicts():
    assert _verdicts(PARENT, [90.0] * 10, better="lower") == (10, True, True)
    assert _verdicts(PARENT, [110.0] * 10, better="lower", bound=0.1) == (0, False, True)
    assert _verdicts(PARENT, [111.0] * 10, better="lower", bound=0.1) == (0, False, False)
