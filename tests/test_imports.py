"""Every name a package module imports is used in that module.

An import that a deletion leaves behind fails here, unless its statement
carries `# noqa: F401` (a binding kept for readers outside the module).
A name counts as used where the module reads it or lists it in __all__.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "adacof")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def unused_imports(text):
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # __all__ = [...] re-exports
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    text = ("from __future__ import annotations\nimport os.path\nimport sys  # noqa: F401\n"
            "from dataclasses import (dataclass,\n    field)\nfrom math import pi as PI\n"
            "__all__ = ['PI']\nos.getcwd(field)\n")
    assert unused_imports(text) == ["dataclass"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    with open(os.path.join(SRC, module)) as f:
        assert unused_imports(f.read()) == [], module
