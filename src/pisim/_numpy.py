"""numpy, bound at import and loaded at its first use.

pisim's modules take `np` from here, so importing pisim, `cost`, `arch
check` and `--help` never load numpy: its import is most of a fresh
`pisim cost`. The first attribute read of `np` runs numpy's import, by
the stdlib lazy-import recipe (`importlib.util.LazyLoader`). So no module
may read `np` at import: not in a module- or class-level statement, and
not in an annotation unless the module has `from __future__ import
annotations`. A missing numpy still raises ModuleNotFoundError at import.
"""

import importlib.util
import sys


def bind(name: str):
    """The module `name`: the one in sys.modules, or a lazy one put there."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = bind("numpy")
