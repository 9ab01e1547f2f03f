"""Every function that the benchmark's traced run wraps exists in the package.

`perfbench/tracer.py` looks up each `perfbench/layers.py` TARGETS entry in
the loaded package and raises on a missing one, so deleting or renaming a
traced function breaks `perfbench/run.py --trace 1`.  This test reads the
list from that file and leaves it untouched.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def benchmark_targets():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


@pytest.mark.parametrize("target", benchmark_targets())
def test_target_resolves(target):
    # "module.function" or "module.Class.method", module relative to the package
    module_name, _, attr = target.partition(".")
    owner = importlib.import_module(f"dicke_therm.{module_name}")
    *classes, name = attr.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    assert inspect.isfunction(vars(owner).get(name)), target
