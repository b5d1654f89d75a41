"""bench/tracer.py wraps dtmseries functions by name; they must still exist."""

import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    missing = [name for name, module, attr in _tracer().TRACED
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_every_counted_kernel_takes_count_at_the_recorded_position():
    tracer = _tracer()
    functions = {name: getattr(module, attr) for name, module, attr in tracer.TRACED}
    for name, position in tracer.COUNTED.items():
        params = list(inspect.signature(functions[name]).parameters)
        assert params[position] == "count", name
