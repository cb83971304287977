"""The README's spec example and every kernel form it documents pass spec
validation, so tightening the validation cannot reject what the docs promise."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from mkimpute.experiments import _kernel_specs_from_config, resolve_spec, set_up

README = Path(__file__).resolve().parents[1] / "README.md"

DOCUMENTED_KERNELS = [
    [{"kind": "gaussian", "sigma": 0.4}],
    [{"kind": "gaussian", "sigma": "median"}],
    [{"kind": "gaussian", "gamma": 3}],
    [{"kind": "polynomial", "degree": 2}],
    [{"kind": "polynomial", "degree": 3, "intercept": 0.5}],
    [{"kind": "polynomial", "degree": 1, "intercept": None}],
    [{"kind": "linear"}],
    "default7",
]


def test_readme_spec_example_resolves():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README.md has no JSON spec example"
    for block in blocks:
        spec = resolve_spec(json.loads(block))
        assert spec["problem"] in ("tvgs", "dmri")
        assert set_up(spec)  # as `mkimpute validate` does


@pytest.mark.parametrize("kernels", DOCUMENTED_KERNELS)
def test_documented_kernel_forms_resolve_and_build(kernels):
    spec = resolve_spec({"problem": "tvgs", "kernels": kernels})
    points = np.random.default_rng(0).standard_normal((3, 6))
    specs = _kernel_specs_from_config(spec["kernels"], points)
    assert len(specs) == (7 if kernels == "default7" else 1)
