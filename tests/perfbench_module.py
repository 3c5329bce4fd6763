"""Load a ``perfbench/`` script as a module, for the tests and the scripts
beside them.  It imports no ``fracmirror``, so a script that loads
``perfbench/gen.py`` can still choose which package it runs.  The name keeps
pytest from collecting it."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """``perfbench/<name>.py``, as the module ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
