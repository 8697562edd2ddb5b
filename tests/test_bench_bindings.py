"""The benchmark's tracer and probes name functions of the package; each name must resolve.

`bench/tracer.py` wraps the functions its `SPANS`, `COUNTED` and
`BINDING_SITES` list, and `bench/probes.py` imports layer functions by
name. Both files are only read and imported here, never changed.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_bench_module("tracer")
WRAPPED = [(mod, attr) for mod, attr, _ in (*TRACER.SPANS, *TRACER.COUNTED)]


@pytest.mark.parametrize("module_name, attr", WRAPPED, ids=[f"{m}:{a}" for m, a in WRAPPED])
def test_wrapped_function_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))  # wrapped in the class's own dict
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("module_name, attr", TRACER.BINDING_SITES,
                         ids=[f"{m}:{a}" for m, a in TRACER.BINDING_SITES])
def test_binding_site_holds_a_wrapped_function(module_name, attr):
    bound = getattr(importlib.import_module(module_name), attr)
    functions = [getattr(importlib.import_module(m), a, None) for m, a in WRAPPED if "." not in a]
    assert any(bound is function for function in functions)


def test_probes_import():
    probes = load_bench_module("probes")
    assert callable(probes.main)
