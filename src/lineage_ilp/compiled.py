"""scipy's compiled modules loaded by file path: importing scipy.optimize or
scipy.ndimage adds 20 to 25 MiB of peak memory, nearly all of it Python
layers around the few compiled routines this package calls.  The modules are
private scipy API, so callers fall back to the public package on None."""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import threading

# Proposal frames run on threads.  A thread that loads a module while another
# is still loading it gets it half initialised, or an error, so loads take turns.
_load_lock = threading.Lock()


def load_compiled(name: str, names: tuple[str, ...]):
    """The compiled module ``scipy.<name>`` loaded by file path, or None when
    this scipy has none that loads and defines every one of ``names``."""
    import scipy

    stem = os.path.join(os.path.dirname(scipy.__file__), *name.split("."))
    paths = [stem + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.exists(stem + s)]
    if not paths:
        return None
    spec = importlib.util.spec_from_file_location("scipy." + name, paths[0])
    with _load_lock:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            return None
    return module if all(hasattr(module, n) for n in names) else None
