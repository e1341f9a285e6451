"""Finite Ehresmann semigroups, their categories, and exact algebra isomorphisms.

Submodules load lazily: each is registered in `sys.modules` and on the package
through `importlib.util.LazyLoader`, and its code runs on first attribute
access, so a command loads only the modules it runs.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("algebras", "categories", "ehresmann", "errors", "linalg", "posets", "reports",
              "reptheory", "semigroups", "zoo"):
    globals()[_name] = _lazy(_name)
del _name
