"""The benchmark's tracer patches catvis functions by module and name."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("catvis_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, name, *_ in tracer.TRACED]


@pytest.mark.parametrize("module,name", _traced())
def test_traced_name_resolves(module, name):
    assert module.split(".")[0] == "catvis"
    assert callable(getattr(importlib.import_module(module), name))
