"""A submodule's ``__all__`` exports only what the submodule defines.

A name that a module imports and lists in ``__all__`` is a re-export
that outlives its last use unnoticed; the package ``__init__`` is the
one place that gathers names from other modules.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import eitnarrow

PACKAGE_DIR = os.path.dirname(os.path.abspath(eitnarrow.__file__))


def _defined_and_exported(module):
    """Top-level names bound by def, class or assignment, and the
    literal ``__all__`` list (None when the module has none)."""
    with open(os.path.join(PACKAGE_DIR, module)) as fh:
        tree = ast.parse(fh.read())
    defined, exported = set(), None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            defined |= names
    return defined, exported


EXPORTING = sorted(
    name for name in os.listdir(PACKAGE_DIR)
    if name.endswith(".py") and name != "__init__.py"
    and _defined_and_exported(name)[1] is not None
)


@pytest.mark.parametrize("module", EXPORTING)
def test_all_names_only_objects_the_module_defines(module):
    defined, exported = _defined_and_exported(module)
    assert sorted(set(exported) - defined) == []


@pytest.mark.parametrize("module", sorted(eitnarrow._EXPORTS))
def test_package_exports_only_names_their_module_defines(module):
    """The package table names each export with the module that
    defines it, so the first access imports the right module."""
    defined, _ = _defined_and_exported(module + ".py")
    assert sorted(set(eitnarrow._EXPORTS[module]) - defined) == []


CHILD = r"""
import json, sys
import eitnarrow
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("eitnarrow."))
star = {}
exec("from eitnarrow import *", star)
star.pop("__builtins__")
own = all(
    obj is getattr(sys.modules[f"eitnarrow.{eitnarrow._OWNER[name]}"], name)
    for name, obj in star.items() if name != "__version__"
)
from eitnarrow import cli, kernels
try:
    eitnarrow.no_such_name
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "loaded": loaded, "star": sorted(star), "all": sorted(eitnarrow.__all__), "own": own,
    "submodules": [cli.__name__, kernels.__name__], "missing": missing,
    "dir": sorted(set(eitnarrow.__all__) - set(dir(eitnarrow))),
}))
"""


def test_package_loads_each_export_on_first_use():
    """A fresh ``import eitnarrow`` loads neither numpy nor a submodule;
    ``import *`` binds exactly ``__all__``, each name to its module's own
    object; submodules still import by name and an unknown name raises
    ``AttributeError``."""
    src = os.path.dirname(PACKAGE_DIR)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["loaded"] == []
    assert seen["star"] == seen["all"] and len(seen["all"]) == 50
    assert seen["own"]
    assert seen["submodules"] == ["eitnarrow.cli", "eitnarrow.kernels"]
    assert seen["missing"] == "module 'eitnarrow' has no attribute 'no_such_name'"
    assert seen["dir"] == []
