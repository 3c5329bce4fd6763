"""Every name that the package or one of its modules exports resolves, every
name a module of the package or of the tests imports is read there or
exported, and ``import fracmirror.cli`` does not pay for ``dataclasses``."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys

import pytest
from conftest import REPO

import fracmirror

_MODULES = ["fracmirror"] + [
    f"fracmirror.{info.name}" for info in pkgutil.iter_modules(fracmirror.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_every_imported_name_is_read_or_exported():
    # an ast scan: ``import a.b`` binds ``a``, and ``import *`` binds nothing
    unread = {}
    for path in sorted([*(REPO / "src" / "fracmirror").glob("*.py"), *(REPO / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {n.asname or n.name.partition(".")[0] for n in ast.walk(tree) if isinstance(n, ast.alias)}
        names -= {"*"} | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]:
                names -= set(ast.literal_eval(node.value))
        if names:
            unread[path.name] = sorted(names)
    assert unread == {}


def test_cli_import_adds_no_dataclasses():
    # only the modules that the import adds count: site imports its own
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import fracmirror.cli; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "src")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "fracmirror.cli" in added
    assert "dataclasses" not in added
