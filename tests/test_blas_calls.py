"""Every BLAS or LAPACK call in the package is on one list.

The bits of a LAPACK routine (``np.linalg.solve``, ``qr``, ``eigvalsh``,
``det``, ...) and of a matrix product (``@``, ``np.matmul``) can depend
on the BLAS kernel that numpy loads, so a report that reads them can
change with the core type.  This walks the syntax tree of each package
module and lists, by (module, function), each ``np.linalg`` call other
than ``norm`` and each ``@`` or ``np.matmul``.  The list must equal
ALLOWED, so that a new call shows up in review as a change to it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "openbooks"

ALLOWED = Counter({
    ("manifolds", "singular_values", "eigvalsh"): 1,
    ("manifolds", "singular_values", "@"): 1,
    ("manifolds", "gauss_newton_step", "solve"): 1,
    ("manifolds", "gauss_newton_step", "@"): 1,
    ("liouville", "subcritical_check", "det"): 1,
})


def _call_name(node):
    """The routine a call or operator node runs, when it is one of the
    listed kinds, else None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) \
            and isinstance(node.op, ast.MatMult):
        return "@"
    if not isinstance(node, ast.Call) or not isinstance(node.func,
                                                        ast.Attribute):
        return None
    func = node.func
    if func.attr == "matmul":
        return "matmul"
    owner = func.value
    if isinstance(owner, ast.Attribute) and owner.attr == "linalg" \
            and func.attr != "norm":
        return func.attr
    return None


def blas_calls(source: str, module: str) -> Counter:
    """(module, enclosing function, routine) of each listed call in
    source, counted; the function is the dotted path of the enclosing
    defs and classes, "<module>" at the top level."""
    found = Counter()

    def visit(node, scope):
        name = _call_name(node)
        if name is not None:
            found[(module, ".".join(scope) or "<module>", name)] += 1
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def test_checker_finds_each_kind_of_call():
    source = (
        "import numpy as np\n"
        "def f(a, b):\n"
        "    x = np.linalg.solve(a, b) + np.linalg.norm(b)\n"
        "    def g():\n"
        "        return np.matmul(a, b)\n"
        "    a @= b\n"
        "    return a @ x\n"
        "Q = np.linalg.qr(np.eye(2))\n")
    assert blas_calls(source, "m") == Counter({
        ("m", "f", "solve"): 1, ("m", "f.g", "matmul"): 1,
        ("m", "f", "@"): 2, ("m", "<module>", "qr"): 1})


def test_package_blas_calls_are_the_allowed_ones():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += blas_calls(path.read_text(), path.stem)
    assert found == ALLOWED


def test_modules_take_linalg_only_through_np():
    # an alias such as `from numpy.linalg import solve` would hide a call
    # from the walk above
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("numpy"), path.name
            elif isinstance(node, ast.Import):
                assert all(a.name == "numpy" for a in node.names
                           if a.name.startswith("numpy")), path.name
