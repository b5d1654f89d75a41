"""Every exported name exists, so ``from dtmseries import *`` keeps working."""

import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dtmseries"


def test_every_name_in_each_all_resolves():
    names = ["dtmseries"] + [f"dtmseries.{p.stem}" for p in sorted(PACKAGE.glob("*.py"))
                             if p.stem != "__init__"]
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    assert not stale, f"__all__ names what the module does not define: {stale}"
    exec("from dtmseries import *", {})
