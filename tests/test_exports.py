"""A submodule's ``__all__`` exports only what the submodule defines.

A name that a module imports and lists in ``__all__`` is a re-export
that outlives its last use unnoticed; the package ``__init__`` is the
one place that gathers names from other modules.
"""

import ast
import os

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


def test_package_all_lists_exactly_the_imported_names():
    """The package ``__all__`` and its imports are two hand-kept lists;
    each name is in both, once, beside ``__version__``."""
    with open(os.path.join(PACKAGE_DIR, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(eitnarrow.__all__) == sorted(imported + ["__version__"])
