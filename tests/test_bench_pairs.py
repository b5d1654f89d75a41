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
