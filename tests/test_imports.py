"""Every name a package module imports is used in that module.

No linter ships with the project, so this walks the syntax tree instead:
an imported name counts as used when it appears as a name anywhere in the
module (attribute chains such as ``np.zeros`` start at a name).  The
package root is skipped, since its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "openbooks"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports in source that nothing in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\n"
              "from .forms import KForm, wedge\n"
              "def f(a: KForm):\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["os", "wedge"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
