"""Checks on the source and the documentation as text: every parameter
is read, only ``gamma`` reads the memory budget, the harness counts every
budget the engines check, and README's command line section names
exactly the options of the parser."""

import ast
import re
from pathlib import Path

import pytest

from cmbproj.cli import build_parser

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "cmbproj").glob("*.py"))


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda))]


def _unread_parameters(path):
    """(line, function, parameter) of every parameter other than ``self``
    that the function's body, nested functions included, never reads."""
    unread = []
    for fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += [(fn.lineno, getattr(fn, "name", "<lambda>"), name)
                   for name in params if name != "self" and name not in read]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []


def test_unread_parameter_is_found(tmp_path):
    # the check itself: a parameter only assigned to is not read
    path = tmp_path / "m.py"
    path.write_text("def f(a, b, self):\n    b = 1\n    return a\n")
    assert _unread_parameters(path) == [(1, "f", "b")]


def test_only_gamma_reads_the_memory_budget():
    # one check compares a byte count with the budget; tests patch it
    # as cmbproj.gamma.MEMORY_BUDGET
    readers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "MEMORY_BUDGET"
                    or isinstance(node, ast.alias)
                    and node.name == "MEMORY_BUDGET"):
                readers.add(path.name)
    assert readers == {"gamma.py"}


def test_one_home_for_the_symmetrised_product():
    # both factors of the direct sweep are summed over the orderings by
    # one routine
    tree = ast.parse((ROOT / "src" / "cmbproj" / "engine3d.py")
                     .read_text(encoding="utf-8"))
    loops = [fn.name for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             and any(isinstance(node, (ast.For, ast.comprehension))
                     and isinstance(node.iter, ast.Name)
                     and node.iter.id == "orders"
                     for node in ast.walk(fn))]
    assert loops == ["_symmetrised"]


BUDGET = re.compile(r"_check_\w+_budget|_block_bytes")


def _called_budgets(tree):
    """Budget formulas that the public functions and the methods of a
    module call directly."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bodies = node.body
        elif (isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")):
            bodies = [node]
        else:
            continue
        names |= {call.func.id for body in bodies for call in ast.walk(body)
                  if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Name)
                  and BUDGET.fullmatch(call.func.id)}
    return names


def test_harness_counts_every_engine_budget():
    # a run is refused before it builds anything only if the harness
    # checks every budget an engine or constructor would refuse it by
    root = ROOT / "src" / "cmbproj"
    called = set()
    for name in ("basis", "geometry", "engine2d", "engine3d"):
        called |= _called_budgets(
            ast.parse((root / f"{name}.py").read_text(encoding="utf-8")))
    harness = ast.parse((root / "harness.py").read_text(encoding="utf-8"))
    problem = next(node for node in ast.walk(harness)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_problem")
    referenced = {node.id for node in ast.walk(problem)
                  if isinstance(node, ast.Name)}
    assert len(called) >= 7
    assert called - referenced == set()


def _readme_section(title):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(rf"^## {title}\n(.*?)(?=^## |\Z)", text,
                      re.MULTILINE | re.DOTALL)
    assert match, f"README has no {title!r} section"
    return match.group(1)


def test_readme_names_every_option():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                           _readme_section("Command line")))
    options = {opt for action in build_parser()._actions
               if action.dest != "help" for opt in action.option_strings
               if opt.startswith("--")}
    assert named - options == set(), "README names no such option"
    assert options - named == set(), "README leaves options out"
