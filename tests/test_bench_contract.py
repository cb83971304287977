"""The benchmark's traced run wraps mkimpute layers by (module, attribute);
every binding it names must exist, so a refactor that drops one fails here
and not only in the traced benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layer_wrappers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_WRAPPERS


@pytest.mark.parametrize("module_name,attr,span", _layer_wrappers())
def test_traced_binding_exists(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span
