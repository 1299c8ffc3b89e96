"""The traced benchmark run (perfbench) wraps package functions by name; a
refactor that renames or removes one would silently drop its layer."""

from __future__ import annotations

import importlib

from perfbench.spans import LAYER_FUNCTIONS


def test_layer_functions_resolve():
    for qualname in LAYER_FUNCTIONS:
        module, name = qualname.split(".")
        assert callable(getattr(importlib.import_module(f"linkscope.{module}"), name, None)), qualname
