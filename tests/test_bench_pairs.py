"""tools/bench_pairs.py runs the workloads that BENCHMARK.json lists."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_existing_output_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text('WORKLOADS = ("bratu", "solve")\n')
    spec = {"run_seconds": 1, "end_to_end": [], "workloads": [{"name": "solve"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    (tmp_path / ".benchmarks").mkdir()
    out = tmp_path / ".benchmarks" / "BENCH_7.json"
    out.write_text("{}\n")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "bench", lambda *a: pytest.fail("a pair ran"))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--pr", "7", "--parent", "HEAD",
                                      "--seeds", "1-2"])
    assert bench_pairs.main() == 2
    assert f"{out} exists" in capsys.readouterr().err
    assert out.read_text() == "{}\n"


def _metric(parent, change, better="higher", bound=0.24):
    def runs(values):
        return [{"metrics": {"m": {"value": v, "unit": "u"}}} for v in values]

    spec = [{"name": "m", "better": better, "bound": bound}]
    return _bench_pairs().compare({"parent": runs(parent), "change": runs(change)}, spec)["m"]


def _verdicts(parent, change, better="higher", bound=0.24):
    result = _metric(parent, change, better, bound)
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


def test_a_parent_spread_inside_the_bound_is_resolved():
    # Parent q3 - q1 = 1.75 against 0.24 x 100: every verdict above stands.
    for change in (PARENT, [v * 0.7 for v in PARENT], [110.0] * 10):
        assert _metric(PARENT, change)["unresolved"] is False


# Bimodal, like bratu peak_rss_mb (lower is better): q1 22, median 23, q3 24.
BIMODAL = [22.0, 24.0] * 5


def test_a_bimodal_parent_wider_than_the_bound_is_unresolved():
    # q3 - q1 = 2 is above 0.05 x 23 = 1.15, and no verdict holds for a
    # change that reads like the parent, or better but not in every run.
    for change in (BIMODAL, [24.0, 22.0] * 5, [21.0] * 9 + [22.0]):
        assert _metric(BIMODAL, change, better="lower", bound=0.05)["unresolved"] is True
    # Within 0.1 x 23 = 2.3 the same spread is resolved.
    assert _metric(BIMODAL, BIMODAL, better="lower", bound=0.1)["unresolved"] is False


def test_a_change_better_in_every_run_is_resolved_whatever_the_spread():
    assert _metric(BIMODAL, [21.9] * 10, better="lower", bound=0.05)["unresolved"] is False
    assert _metric(BIMODAL, [24.1] * 10, better="higher", bound=0.05)["unresolved"] is False
    assert _metric(BIMODAL, [24.0] * 10, better="higher", bound=0.05)["unresolved"] is True


def test_workload_entry_keeps_each_runs_attempted_ops_beside_the_totals():
    def runs(attempted):
        return [{"correct": True, "attempted": a, "failed": a // 100,
                 "metrics": {"m": {"value": a / 30, "unit": "u"}}} for a in attempted]

    results = {"parent": runs([39000, 39300, 38700]), "change": runs([42000, 41700, 42300])}
    spec = [{"name": "m", "better": "higher", "bound": 0.24}]
    entry = _bench_pairs().workload_entry([1, 2, 3], results, spec)
    assert entry["attempted"] == {"parent": 117000, "change": 126000}
    assert entry["attempted_runs"] == {"parent": [39000, 39300, 38700],
                                       "change": [42000, 41700, 42300]}
    assert entry["failed"] == {"parent": 1170, "change": 1260}
    assert entry["correct"] == {"parent": True, "change": True}
    assert (entry["seeds"], entry["pairs"]) == ([1, 2, 3], 3)
    assert entry["metrics"]["m"]["change_better_pairs"] == 3


def test_verdicts_name_each_gain_and_each_metric_out_of_bound():
    def metric(gain, within):
        return {"gain_shown": gain, "within_bound": within, "unresolved": False}

    workloads = {
        "bratu": {"metrics": {"op_ms.p50": metric(True, True), "op_ms.p90": metric(True, True),
                              "peak_rss_mb": metric(False, False)}},
        "solve": {"metrics": {"op_ms.p50": metric(False, True)}},
        "long_series": {"metrics": {"ok_per_s": metric(False, False)}},
    }
    assert _bench_pairs().verdicts(workloads) == {
        "gain_shown": ["bratu op_ms.p50", "bratu op_ms.p90"],
        "not_within_bound": ["bratu peak_rss_mb", "long_series ok_per_s"],
    }
    assert _bench_pairs().verdicts({"solve": workloads["solve"]}) == {
        "gain_shown": [], "not_within_bound": []}


def test_src_lines_counts_the_python_lines_under_src(tmp_path):
    # Each side's tree, as the parent's archive and the working tree are.
    trees = {"parent": ("a\nb\nc\n", "d\n"), "change": ("a\n", "")}
    for side, (top, nested) in trees.items():
        package = tmp_path / side / "src" / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "top.py").write_text(top)
        (package / "sub" / "nested.py").write_text(nested)
        (package / "notes.txt").write_text("not\ncounted\n")
        (tmp_path / side / "outside.py").write_text("not counted\n")
    counts = {side: _bench_pairs().src_lines(tmp_path / side) for side in trees}
    assert counts == {"parent": 4, "change": 1}


def _traced_stdout(defect_lines):
    # The shape of a traced ``bench/run.py --workload bratu`` run's stdout.
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {
        "bratu.residual_evals": {"value": 80, "unit": "count"},
        "bratu.shoot.ms": {"value": 0.08, "unit": "ms"},
        "defects.failing": {"value": len(defect_lines), "unit": "count"}}}
    return "\n".join([
        "# dtmseries benchmark: workload=bratu seed=3 python=3.11.7 nproc=2 cpu='Xeon'",
        "#   attempted=4 failed=0 fail_frac=0.0000",
        f"# known defects (run once, untimed, not in attempted/failed): "
        f"{len(defect_lines)} of 4 ops still fail",
        *defect_lines,
        "# correct=True",
        json.dumps(result),
    ]) + "\n"


UPPER = "#   defect op bratu(0.5, 30, 'upper') status=typed exit 4: error: no root within tolerance"
LOWER_30 = "#   defect op bratu(3.5, 30, 'lower') status=wrong gamma 2.45886, exact 3.70397"
LOWER_60 = "#   defect op bratu(3.5, 60, 'lower') status=wrong gamma 2.51664, exact 3.70397"
SOLVE = "#   defect op solve(3, 80) status=typed exit 3: error: status=x in the detail"


def test_defect_statuses_are_read_from_the_defect_op_lines():
    failed = "#   failed op bratu(1.0, 30, 'lower') status=wrong gamma 1.1, exact 1.2\n"
    stdout = _traced_stdout([UPPER, LOWER_30, SOLVE]) + failed
    assert _bench_pairs().defect_statuses(stdout) == {
        "bratu(0.5, 30, 'upper')": "typed",
        "bratu(3.5, 30, 'lower')": "wrong",
        "solve(3, 80)": "typed",
    }


def test_traced_lists_the_defect_ops_whose_status_moves(monkeypatch):
    bench_pairs = _bench_pairs()
    changed_30 = LOWER_30.replace("status=wrong gamma 2.45886, exact 3.70397",
                                  "status=typed exit 4: error: no sign change found")
    stdout = {"parent": _traced_stdout([UPPER, LOWER_30, LOWER_60]),
              "change": _traced_stdout([UPPER, changed_30])}

    def fake_run(argv, cwd, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=stdout[cwd.name], stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    roots = {side: Path(side) for side in bench_pairs.SIDES}
    traced = bench_pairs.traced(roots, "bratu")
    assert traced["defects"] == {
        "parent": {"bratu(0.5, 30, 'upper')": "typed", "bratu(3.5, 30, 'lower')": "wrong",
                   "bratu(3.5, 60, 'lower')": "wrong"},
        "change": {"bratu(0.5, 30, 'upper')": "typed", "bratu(3.5, 30, 'lower')": "typed"},
    }
    assert traced["defects_differ"] == ["bratu(3.5, 30, 'lower')", "bratu(3.5, 60, 'lower')"]
    assert traced["differs"] == ["defects.failing"]
    assert traced["parent"] == {"bratu.residual_evals": 80, "defects.failing": 3}


def test_revisions_name_the_commits_of_this_checkout():
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)

    head = git("rev-parse", "--verify", "HEAD")
    if head.returncode:
        pytest.skip("not a git checkout with a commit")
    revs = _bench_pairs().revisions("HEAD")
    assert revs["parent"] == revs["head"] == head.stdout.strip()
    assert len(revs["head"]) == 40
    assert revs["dirty"] == bool(git("status", "--porcelain").stdout.strip())
    with pytest.raises(subprocess.CalledProcessError):
        _bench_pairs().revisions("no-such-revision")
