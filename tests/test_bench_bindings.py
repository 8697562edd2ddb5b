"""The benchmark's tracer and probes name functions of the package; each name must resolve.

`bench/tracer.py` wraps the functions its `SPANS`, `COUNTED` and
`BINDING_SITES` list, and `bench/probes.py` imports layer functions by
name. Both files are only read and imported here, never changed. The
tracer also reads `gru_forward`'s arguments, on both of its input paths.
"""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from orderlab import encoder
from orderlab.numkit import SeededRng
from orderlab.seqrec import ModelConfig, SeqRecModel

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


@pytest.mark.parametrize("vocab", [5, 50], ids=["table-path", "cell-path"])
def test_gru_kernels_run_on_both_input_paths_with_the_item_matrix_in_argument_1(monkeypatch, vocab):
    """The tracer fails a layer with no call, and counts `encoder.cell_steps` from
    `gru_forward`'s argument 1 as shape[0] * shape[1]: the (B, T) items on both paths."""
    model = SeqRecModel(ModelConfig(vocab=vocab, hidden=8))
    params = model.init_params(SeededRng(0))
    items = np.array([[1, 2, 3, 4], [2, 2, 0, 0], [4, 1, 3, 0]])
    calls = []

    def recorded(name, kernel):
        def call(*args, **kwargs):
            calls.append((name, args, kwargs))
            return kernel(*args, **kwargs)

        return call

    for name in ("gru_forward", "gru_backward"):
        monkeypatch.setattr(encoder, name, recorded(name, getattr(encoder, name)))
    table = params.view("item_embeddings")
    states, cache = model.encode(params, "enc", table, items)
    d_table = model.encode_backward(
        params, "enc", cache, items, np.ones(states.shape), np.zeros(table.shape), model.zero_params()
    )
    assert [name for name, _, _ in calls] == ["gru_forward", "gru_backward"]
    assert d_table.shape == table.shape
    _, args, kwargs = calls[0]
    assert ("table" in kwargs) == (vocab < items.size)
    assert TRACER._arg(args, kwargs, 1, "x").shape[:2] == items.shape
    counts = Counter()
    TRACER._after_gru_forward(args, kwargs, (states, cache), counts)
    assert counts["encoder.cell_steps"] == items.size
