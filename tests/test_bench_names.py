"""The benchmark tracer patches ``sandgait`` functions by module and name;
a renamed or removed function would break every traced run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _tracing()
PATCHED = sorted({(mod, attr) for mod, attr, *_ in
                  _tracer.SPANS + _tracer.COUNTERS})


@pytest.mark.parametrize("mod, attr", PATCHED)
def test_traced_name_resolves(mod, attr):
    module = importlib.import_module(f"sandgait.{mod}")
    assert callable(getattr(module, attr, None)), f"sandgait.{mod}.{attr}"
