import importlib
import inspect

import pytest


@pytest.mark.parametrize("name", ["bounds", "signals", "orlicz", "mild_solver", "diagonal",
                                  "fokker_planck", "errors"])
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"isslab.{name}")
    # a stale entry breaks `from module import *`
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []
