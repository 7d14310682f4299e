"""The benchmark's per-layer metrics name public functions of the package.

A traced benchmark run fails with "metric ... was not measured" for a
declared ``<module>.<function>.<stat>`` whose function is no longer in
its module's ``__all__``; this test catches such a rename or removal in
the ordinary test run.
"""

import importlib
import inspect
import json
import os
import re

import pytest

BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
_FUNCTION_METRIC = re.compile(r"^(\w+)\.(\w+)\.(self_s|total_s|calls)$")


def _declared_functions():
    with open(BENCHMARK) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return sorted({m.group(1, 2) for m in map(_FUNCTION_METRIC.match, names) if m})


def test_some_functions_are_declared():
    assert len(_declared_functions()) >= 10


@pytest.mark.parametrize("module, function", _declared_functions())
def test_declared_function_is_public(module, function):
    mod = importlib.import_module("microshell." + module)
    assert function in mod.__all__
    assert inspect.isfunction(getattr(mod, function))
