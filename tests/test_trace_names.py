"""The traced benchmark in ``perfbench/`` wraps package functions by name.

These checks read its name tables (without editing them), so a rename in
the package fails here instead of silently dropping a per-layer metric.
The span checks run ``tracer.py`` on the reference joint in a fresh
interpreter, so a refactor that hides a call from the tracer's rebinding
fails here instead of zeroing a layer's counts.
"""

import collections
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import sibsonmi
from sibsonmi.cli import save_joint
from sibsonmi.instances import reference_joint

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


def _traced_edges(tmp_path, *cli_args):
    """Run one CLI invocation under ``perfbench/tracer.py`` in a fresh
    interpreter and count its spans by (parent name, child name)."""
    ref = tmp_path / "ref.json"
    if not ref.exists():
        save_joint(reference_joint(), str(ref))
    spans = tmp_path / "spans.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(sibsonmi.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "tracer.py"), str(spans), "op",
         *cli_args, "--input", str(ref)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        check=True,
    )
    records = json.loads(spans.read_text())["spans"]
    names = {r[0]: r[3] for r in records}
    return collections.Counter((names.get(r[1]), r[3]) for r in records)


def test_bound_spans_reach_measure_and_product(tmp_path):
    edges = _traced_edges(tmp_path, "bound", "--thm", "3", "--alpha", "2",
                          "--event", "x==y")
    assert edges["bounds.bound_thm3", "sibson.cond_sibson_z"] == 1
    assert edges["bounds.bound_thm3", "core.markov_product"] == 1
    edges = _traced_edges(tmp_path, "bound", "--thm", "1", "--alpha", "2",
                          "--event", "x==y")
    assert edges["bounds.bound_thm1", "sibson.cond_sibson_ygz"] == 1


def test_biconjugate_spans_count_every_grid_measure(tmp_path):
    edges = _traced_edges(tmp_path, "exponent")
    # each biconjugate prices its 200-order grid in one call: ep's a = 1
    # point needs no measure, eq's (at E_P = 0) the order-one measure
    assert edges["exponents.ep_biconjugate", "sibson.cond_sibson_z_values"] == 1
    assert edges["exponents.ep_biconjugate", "sibson.cond_sibson_z"] == 0
    assert edges["exponents.eq_biconjugate", "sibson.cond_sibson_z_values"] == 1
    assert edges["exponents.eq_biconjugate", "sibson.cond_sibson_z"] == 1
