"""The names the benchmark's tracer wraps still exist in the library.

``perfbench/tracer.py`` looks each traced function up by name and rebinds
the ``quad`` and ``solve_ivp`` of the modules it counts in; a missing name
makes every traced pass raise ``AttributeError``.  The tracer module is
loaded from its file and only read: nothing is installed.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    for short, names in tracer.TRACED.items():
        module = importlib.import_module("deltanls." + short)
        for name in names:
            assert callable(getattr(module, name, None)), f"deltanls.{short}.{name}"


def test_counted_bindings_exist(tracer):
    for short in tracer.QUAD_MODULES:   # algebra and massmap
        assert callable(getattr(importlib.import_module("deltanls." + short), "quad", None))
    assert callable(getattr(importlib.import_module("deltanls.oracle"), "solve_ivp", None))
