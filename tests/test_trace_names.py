"""The traced benchmark in ``perfbench/`` wraps package functions by name.

These checks read its name tables (without editing them), so a rename in
the package fails here instead of silently dropping a per-layer metric.
"""

import importlib
import inspect
import os
import pkgutil
import sys

import pytest

import sibsonmi

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        layers = importlib.import_module("layers")
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)
    return layers, tracer


def _wrapped_names(tracer):
    """Span names the tracer's ``install`` gives: every public function
    defined in a module, plus the listed class members."""
    names = set()
    for info in pkgutil.iter_modules(sibsonmi.__path__):
        mod = importlib.import_module(f"sibsonmi.{info.name}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                names.add(f"{info.name}.{attr}")
    for short, cls_name, member, label in tracer.CLASS_MEMBERS:
        cls = getattr(importlib.import_module(f"sibsonmi.{short}"), cls_name)
        assert member in vars(cls), (cls_name, member)
        names.add(f"{short}.{label}")
    return names


def test_every_layer_function_is_traced(perfbench):
    layers, tracer = perfbench
    names = _wrapped_names(tracer)
    wanted = {f"{mod}.{fn}" for mod, fns in layers.LAYER_FUNCTIONS.items() for fn in fns}
    assert wanted - names == set()
    assert set(tracer.MEASURES) - names == set()


def test_exact_errors_keeps_the_traced_parameters():
    from sibsonmi.hyptest import exact_errors

    params = inspect.signature(exact_errors).parameters
    assert {"j", "test", "qz_grid_step", "state_cap"} <= set(params)
