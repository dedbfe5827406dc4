"""The benchmark tracer wraps methods by reading each class's own __dict__,
so every method it lists must stay defined in that class body."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _tracer()


@pytest.mark.parametrize("layer", sorted(TRACER_MODULE.METHODS))
def test_traced_methods_are_defined_in_their_own_class(layer):
    module = importlib.import_module(f"qsym.{layer}")
    for cls_name, methods in TRACER_MODULE.METHODS[layer].items():
        cls = getattr(module, cls_name)
        missing = [m for m in methods if m not in cls.__dict__]
        assert not missing, f"{layer}.{cls_name} lacks {missing}"


def test_traced_layers_and_private_functions_exist():
    for layer in TRACER_MODULE.LAYERS:
        module = importlib.import_module(f"qsym.{layer}")
        for name in TRACER_MODULE.PRIVATE.get(layer, ()):
            assert callable(getattr(module, name)), f"{layer}.{name}"
