"""numpy, bound lazily: its import runs at the first attribute access.

The exact commands never touch a float array, so they never pay for
numpy's import. The module is registered as sys.modules["numpy"], where
numpy's own relative imports look for it; a numpy already imported is
reused, and a missing one still raises ModuleNotFoundError here. Modules
take it as `from ._lazy import np`: an `import numpy` statement reads the
module's __spec__, and that access alone runs the import.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
