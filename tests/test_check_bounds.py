"""No check takes its bound from the caller.

Every ``@timed`` check states its tolerances, grids, flow steps and report
names in its own body, and its reports record them (``tolerance``,
``residual_tolerance``), so a pass cannot come from a caller loosening a
bound.  No linter ships with the project, so this walks the syntax tree of
each package module and lists the parameters of its ``@timed`` functions
whose names mark a bound.
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


def _is_timed(decorator) -> bool:
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "timed"
    return isinstance(decorator, ast.Name) and decorator.id == "timed"


def bound_parameters(source: str) -> list[str]:
    """The bound-named parameters of the @timed functions in source, each
    as "function.parameter"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                any(map(_is_timed, node.decorator_list)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            found += [f"{node.name}.{a.arg}" for a in params
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
              "def helper(samples, tol=1e-8, step=1e-3):\n"
              "    pass\n")
    assert bound_parameters(source) == [
        "check.rel_tol", "check.name", "other.binding_band", "other.tol",
        "flows.step", "flows.flow_step", "sweep.tau_grid"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_check_takes_a_bound(path):
    assert bound_parameters(path.read_text()) == []
