"""Static checks on the package source."""

import argparse
import ast
import inspect
import textwrap
from pathlib import Path

import pytest

import hedgelab
from hedgelab.analysis import RegretMeter
from hedgelab.cli import _add_config_flags
from hedgelab.game import play_match
from hedgelab.harness import CONFIG_KEYS
from hedgelab.learners import OptimisticHedge, _checked_utilities

PACKAGE = Path(hedgelab.__file__).resolve().parent


def unused_imports(source: str):
    """Names a module imports but never reads; an `__all__` entry counts as
    a read, and `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "from .game import play_match\n"
        "__all__ = ['play_match']\n"
        "x = np.zeros(os.sep)\n"
    )
    assert unused_imports(source) == [(4, "dataclass"), (4, "field")]


def test_package_has_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert not found


def test_config_flags_are_the_config_keys():
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    flags = [action for action in parser._actions if action.dest not in ("help", "config")]
    assert {action.dest for action in flags} == set(CONFIG_KEYS)
    # flag values stay strings, so build_config parses them as it parses file values
    assert all(action.type is None and action.choices is None for action in flags)


def test_package_exports_are_its_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert all(hasattr(hedgelab, name) for name in hedgelab.__all__)
    assert imported == set(hedgelab.__all__)


# Per-round code reads extremes with learners.top/bottom and sums with
# np.add.reduce; each of these forms costs a ufunc reduce (or a temporary).
SLOW_METHODS = {"max", "min", "sum"}


def slow_calls(source: str):
    """Calls of .max/.min/.sum and np.abs in `source`, as (line, call)."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr in SLOW_METHODS:
            found.append((node.lineno, f".{func.attr}"))
        elif func.attr == "abs" and isinstance(func.value, ast.Name) and func.value.id == "np":
            found.append((node.lineno, "np.abs"))
    return sorted(found)


def test_slow_call_finder():
    source = (
        "def f(u, v):\n"
        "    a = float(np.abs(u).max())\n"
        "    b = max(a, v.item(v.argmin()))\n"
        "    return a + v.sum() + np.add.reduce(u) + u.min()\n"
    )
    assert slow_calls(source) == [(2, ".max"), (2, "np.abs"), (4, ".min"), (4, ".sum")]


@pytest.mark.parametrize(
    "func",
    [
        OptimisticHedge.next_strategy,
        _checked_utilities,
        RegretMeter.update,
        RegretMeter.snapshot,
        play_match,
    ],
    ids=lambda f: f.__qualname__,
)
def test_per_round_code_makes_no_reduce_calls(func):
    assert slow_calls(inspect.getsource(func)) == []
