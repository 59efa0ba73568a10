"""Every name a package module imports is used in that module, every
local a function binds is read, and every private module-level function
or class is referenced by its module.

No linter ships with the project, so this walks the syntax tree instead:
an imported name counts as used when it appears as a name anywhere in the
module (attribute chains such as ``np.zeros`` start at a name).  The
package root is skipped, since its imports are its exports.  A function's
locals are the names bound in its own scope, not in nested defs; a local
counts as read when it is loaded anywhere in the function, nested defs
included (closures read their enclosing locals).  Names starting with
``_`` are exempt, so ``_, b = pair`` is how a value is dropped on purpose.
A private helper (a module-level ``def`` or ``class`` whose name starts
with one ``_``) that no name in its module reads is one that a deletion
left behind; a helper that only tests import belongs in the tests.  By
the same rule, an annotated field of a class in the package counts as
read when some attribute access ``x.field`` loads it in the package or
in a demo; the match is by attribute name, whatever the class of ``x``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "openbooks"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_scope(fn):
    """The nodes of a function's body, without descending into nested
    functions, classes or lambdas."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """``function.name`` for each local that its function binds and never
    reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, declared = set(), set()
        for node in _own_scope(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        found += [f"{fn.name}.{name}"
                  for name in sorted(bound - read - declared)
                  if not name.startswith("_")]
    return found


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\n"
              "from .forms import KForm, wedge\n"
              "def f(a: KForm):\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["os", "wedge"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unused_local():
    source = ("def f(x):\n"
              "    a, b = x\n"                  # b is never read
              "    _, c = x\n"                  # _ is exempt
              "    d = 1\n"
              "    def g():\n"
              "        e = 2\n"                 # g's own local
              "        return c + d\n"          # closure reads c and d
              "    for i in range(3):\n"        # loop target never read
              "        pass\n"
              "    return a + g()\n"
              "def h():\n"
              "    global z\n"
              "    z = 1\n")
    assert unused_locals(source) == ["f.b", "f.i", "g.e"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_local(path):
    assert unused_locals(path.read_text()) == []


def unused_private(source: str) -> list[str]:
    """Names of the module-level private functions and classes in source
    that nothing in it reads."""
    tree = ast.parse(source)
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    return [name for name in defined if name not in read]


def test_checker_finds_an_unused_private_helper():
    source = ("def _used(x):\n    return x\n"
              "def _dead(x):\n    return x\n"
              "class _Dead:\n    pass\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n"
              "def public(x):\n"
              "    def _nested():\n        return x\n"     # not module level
              "    return _used(x)\n")
    assert unused_private(source) == ["_dead", "_Dead"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_private_helper(path):
    assert unused_private(path.read_text()) == []


def unread_fields(sources, readers) -> list[str]:
    """``Class.field`` for each annotated field of a class in sources that
    no attribute load in sources or readers reads."""
    fields, read = [], set()
    for source in list(sources) + list(readers):
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    for source in sources:
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                fields += [(cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)]
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_checker_finds_an_unread_field():
    source = ("class A:\n"
              "    used: int\n"
              "    dead: int\n"                     # only written
              "    by_demo: int = 0\n"
              "    def f(self):\n"
              "        self.dead = self.used\n"
              "        return A(used=1, dead=2)\n")
    demo = "print(a.by_demo)\n"
    assert unread_fields([source], [demo]) == ["A.dead"]
    assert unread_fields([source], []) == ["A.dead", "A.by_demo"]


def test_package_has_no_unread_field():
    assert unread_fields([p.read_text() for p in sorted(SRC.glob("*.py"))],
                         [p.read_text() for p in DEMOS]) == []
