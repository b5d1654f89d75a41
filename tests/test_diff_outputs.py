"""tools/diff_outputs.py runs one grid on a parent and on the working tree,
and reports the invocations whose output differs."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "diff_outputs.py"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))  # it imports bench_pairs beside it
    spec = importlib.util.spec_from_file_location("diff_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_grid_is_fixed(tool):
    invocations = tool.grid()
    kinds = [argv[0] for argv, _ in invocations]
    assert [kinds.count(k) for k in ("bratu", "solve", "ops")] == [200, 32, 24]
    assert invocations[0] == (["bratu", "--lambda", "0.001", "--order", "3", "--grid", "101",
                               "--branch", "lower"], None)
    assert invocations[199][0][:3] == ["bratu", "--lambda", "10.0"]


@pytest.mark.skipif(not ((ROOT / ".git").exists() and shutil.which("git")
                         and shutil.which("tar")), reason="needs a git checkout, git and tar")
def test_two_point_grid_against_head_reports_no_difference(tool, tmp_path, monkeypatch,
                                                           capsys):
    # Both sides are HEAD's tree, so uncommitted edits do not reach the result.
    head = tmp_path / "head"
    head.mkdir()
    tool.export("HEAD", head)
    two = tool.grid()[:2]
    monkeypatch.setattr(tool, "ROOT", head)
    monkeypatch.setattr(tool, "grid", lambda: two)
    out = tmp_path / "diff.json"
    monkeypatch.setattr(sys, "argv", ["diff_outputs.py", "--parent", "HEAD", "--out", str(out)])
    assert tool.main() == 0
    doc = json.loads(out.read_text())
    assert doc["invocations"] == 2
    assert doc["exit_codes"] == {"parent": {"0": 1, "4": 1}, "change": {"0": 1, "4": 1}}
    assert doc["differ"] == []
    assert "0 of 2 invocations differ" in capsys.readouterr().out


def test_a_changed_digit_is_reported(tool, tmp_path):
    # The summary's lambda, 0.001, printed as 0.01 on stderr by a copy of src.
    src = shutil.copytree(ROOT / "src", tmp_path / "src",
                          ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "dtmseries" / "cli.py"
    text = cli.read_text()
    assert text.count('"lambda": args.lam,') == 1
    cli.write_text(text.replace('"lambda": args.lam,', '"lambda": args.lam * 10,'))
    invocations = tool.grid()[:2]  # lambda 1e-3, N = 3: lower exits 0, upper 4
    parent = tool.side_records(ROOT / "src", invocations)
    change = tool.side_records(src, invocations)
    assert [r["exit"] for r in parent] == [0, 4]
    [differ] = tool.differing(invocations, parent, change)
    assert differ["argv"] == invocations[0][0]
    assert differ["parent"]["stdout"] == differ["change"]["stdout"]
    assert differ["parent"]["stderr"] != differ["change"]["stderr"]
