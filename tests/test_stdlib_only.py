"""The package is standard-library only: no import outside it, no dependency,
no import inside a function, and no heavy standard module at import time."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dtmseries"


def _imports(path: Path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_relative_or_stdlib(path):
    outside = [(line, name) for line, name in _imports(path)
               if name not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports outside the standard library: {outside}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_at_call_time(path):
    # Every module binds what it uses once, when it loads; the circular
    # imports between lang, powers and series resolve from sys.modules.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = [(f.name, node.lineno)
              for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(f) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not inside, f"{path.name} imports inside a function: {inside}"


def test_the_package_has_no_dependencies():
    project = ROOT / "pyproject.toml"
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the one line
        assert re.search(r"^dependencies = \[\]$", project.read_text(), re.M)
    else:
        with project.open("rb") as fh:
            assert tomllib.load(fh)["project"]["dependencies"] == []


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # -S: site's own imports (a .pth file may import typing) are not the package's.
    code = "import sys, dtmseries.cli; print(*sorted({'dataclasses', 'inspect', 'typing'} & {*sys.modules}))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.split() == []
