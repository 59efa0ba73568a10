"""No check takes its bound from the caller, and no helper takes one as a
default.

Every ``@timed`` check states its tolerances, grids, flow steps and report
names in its own body, and its reports record them (``tolerance``,
``residual_tolerance``), so a pass cannot come from a caller loosening a
bound.  The helpers and constructors below the checks keep theirs as
literals or module constants too: no public function or method has a
defaulted parameter whose name marks a bound, so no caller can pass in a
tolerance, step, grid or name that every program leaves at one value.  No
linter ships with the project, so this walks the syntax tree of each
package module and lists the parameters whose names mark a bound: every
such parameter of a ``@timed`` function, and every defaulted one of a
public module-level function or of a public method of a module-level
class.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "openbooks"
MODULES = sorted(SRC.glob("*.py"))
BOUND_NAME = re.compile(
    r"tol|tolerance|.+_tol|slack|.+_band|name|.+_grid|eps_values|flow_field"
    r"|step|.+_step")
# Held back: benchmarks/tracer.py binds flow's arguments by name to count
# its point-steps, so these two defaults stay until the tracer reads the
# count another way.
ALLOWED = {"flow.step", "flow.halving_tol"}


def _is_timed(decorator) -> bool:
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "timed"
    return isinstance(decorator, ast.Name) and decorator.id == "timed"


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def _defaulted(args) -> list[ast.arg]:
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults):]
    return with_default + [a for a, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
                           if d is not None]


def _functions(tree):
    """(qualified name, node) of each module-level function and each
    method of a module-level class; nested functions are not API."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def bound_parameters(source: str) -> list[str]:
    """The bound-named parameters in source, each as
    "function.parameter": all of them for a @timed function, the
    defaulted ones for any other public function or method."""
    found = []
    for name, node in _functions(ast.parse(source)):
        args = node.args
        if any(map(_is_timed, node.decorator_list)):
            params = args.posonlyargs + args.args + args.kwonlyargs
        elif _is_public(node.name):
            params = _defaulted(args)
        else:
            continue
        found += [f"{name}.{a.arg}" for a in params
                  if BOUND_NAME.fullmatch(a.arg)]
    return found


def test_checker_finds_a_bound_parameter():
    source = ("from .report import timed\n"
              "from . import report\n"
              "@timed\n"
              "def check(samples, rel_tol=1e-8, seed=0, *, name=None):\n"
              "    pass\n"
              "@report.timed\n"
              "def other(samples, binding_band=1e-3, delta=0.2, tol=1):\n"
              "    pass\n"
              "@timed\n"
              "def flows(samples, step=1e-3, flow_step=1e-3, steps=10):\n"
              "    pass\n"
              "@timed\n"
              "def sweep(rep, c, tau_grid, samples, grid=None):\n"
              "    pass\n"
              "def helper(samples, name, tol=1e-8, *, step=1e-3, n=2):\n"
              "    def inner(p, tol=1e-12):\n"
              "        pass\n"
              "def _private(samples, tol=1e-8, name=None):\n"
              "    pass\n"
              "class Shape:\n"
              "    def project(self, p, max_step=0.1, out=None):\n"
              "        pass\n"
              "    def _refine(self, p, tol=1e-12):\n"
              "        pass\n")
    assert bound_parameters(source) == [
        "check.rel_tol", "check.name", "other.binding_band", "other.tol",
        "flows.step", "flows.flow_step", "sweep.tau_grid", "helper.tol",
        "helper.step", "Shape.project.max_step"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_check_takes_a_bound(path):
    assert set(bound_parameters(path.read_text())) <= ALLOWED
