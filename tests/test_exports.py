"""Every exported name exists, so ``from dtmseries import *`` keeps working."""

import importlib
from pathlib import Path
from types import ModuleType

import dtmseries
from dtmseries import bratu, errors, lang, powers, series

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


def test_the_package_exports_its_modules_all_and_defines_only_its_version():
    modules = (series, powers, lang, bratu, errors)
    names = dict.fromkeys(name for module in modules for name in module.__all__)
    assert dtmseries.__all__ == ["__version__", *names]
    for module in modules:
        for name in module.__all__:
            assert getattr(dtmseries, name) is getattr(module, name)
    namespace = {}
    exec("from dtmseries import *", namespace)
    assert namespace.keys() - {"__builtins__"} == {"__version__", *names}
    public = {name for name, value in vars(dtmseries).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == names.keys()


def test_no_name_is_in_two_modules_all():
    owners = {}
    for module in (series, powers, lang, bratu, errors):
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
