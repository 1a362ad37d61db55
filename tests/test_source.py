"""Static checks on the package source."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import re
import sys
import textwrap
from pathlib import Path

import pytest

import hedgelab
from hedgelab.analysis import RegretMeter, _metric_rows
from hedgelab.cli import _add_config_flags
from hedgelab.game import play_match
from hedgelab.harness import CONFIG_KEYS, run_metered
from hedgelab.learners import AveragedHedge, OptimisticHedge, _checked_utilities, _kahan_add

PACKAGE = Path(hedgelab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCHMARKS = TESTS.parent / "benchmarks"


def all_entries(node):
    """The names an `__all__ = [...]` assignment lists; none for any other node."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return [elt.value for elt in node.value.elts]
    return []


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
        else:
            used.update(all_entries(node))
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


def defined_names(source: str):
    """Module-level functions, classes and constants `source` defines, as
    (line, name); dunders are exempt."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names if not name.startswith("__")]
    return found


def read_names(source: str):
    """Names `source` reads: a loaded name, an attribute, an imported name
    or an `__all__` entry."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        else:
            found.update(all_entries(node))
    return found


def test_defined_and_read_name_finders():
    source = (
        "from .game import play_match\n"
        "__all__ = ['Exported']\n"
        "LIMIT = 1.0\n"
        "SPARE: float = 2.0\n"
        "class Exported: ...\n"
        "def helper(x):\n"
        "    unused = x.attr\n"
        "    return play_match(LIMIT)\n"
    )
    assert defined_names(source) == [(3, "LIMIT"), (4, "SPARE"), (5, "Exported"), (6, "helper")]
    assert read_names(source) == {"play_match", "Exported", "float", "attr", "x", "LIMIT"}


def test_every_module_level_name_is_read():
    # Only the package's own reads count (an `__all__` entry is one), so a
    # name that only tests read belongs in tests/oracles.py, not here.
    read = set().union(*(read_names(p.read_text()) for p in PACKAGE.glob("*.py")))
    unread = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := [d for d in defined_names(path.read_text()) if d[1] not in read])
    }
    assert not unread


# The number checks in errors.py raise the error class given as their
# fourth argument or as error=.
NUMBER_CHECKS = {"require_count", "require_real"}


def name_of(node):
    """A plain or attribute name's last part; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def raised_names(source: str):
    """Names of what `source` raises, called or not, plain or as an
    attribute, and of the error classes it hands to a number check."""
    raised = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised.append(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        elif isinstance(node, ast.Call) and name_of(node.func) in NUMBER_CHECKS:
            raised += node.args[3:] + [kw.value for kw in node.keywords if kw.arg == "error"]
    return {name for node in raised if (name := name_of(node))}


def test_every_export_is_documented():
    readme = (TESTS.parent / "README.md").read_text()
    named = [name for name in hedgelab.__all__ if re.search(rf"`{name}\b", readme)]
    assert sorted(set(hedgelab.__all__) - set(named)) == []


def test_raised_name_finder():
    source = (
        "from . import errors\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise ConfigError(f'bad {x}')\n"
        "    try:\n"
        "        g()\n"
        "    except KeyError as exc:\n"
        "        raise errors.MatrixFormatError('no') from exc\n"
        "    except ValueError:\n"
        "        raise\n"
        "    raise BareError\n"
        "def h(m, d):\n"
        "    require_count('m', m, 2, TooFewActionsError)\n"
        "    errors.require_real('d', d, '(0, 1]', error=errors.InvalidDeltaError)\n"
        "    require_real('d', d, '[0, 1]')\n"
        "    return UnraisedError('built, never raised')\n"
    )
    assert raised_names(source) == {
        "ConfigError",
        "MatrixFormatError",
        "BareError",
        "TooFewActionsError",
        "InvalidDeltaError",
    }


def test_every_error_class_is_raised():
    # An error class outlives its last raise unnoticed otherwise: importing
    # it in __init__ or another module counts as a read for
    # test_every_module_level_name_is_read.
    raised = set().union(*(raised_names(p.read_text()) for p in PACKAGE.glob("*.py")))
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes
    assert [name for name in classes if name not in raised] == []


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
        OptimisticHedge.observe,
        AveragedHedge.next_strategy,
        AveragedHedge.observe,
        _kahan_add,
        _checked_utilities,
        RegretMeter.update,
        RegretMeter.snapshot,
        _metric_rows,
        play_match,
        run_metered,
        OptimisticHedge._step,
        OptimisticHedge._update,
        AveragedHedge._update,
    ],
    ids=lambda f: f.__qualname__,
)
def test_per_round_code_makes_no_reduce_calls(func):
    assert slow_calls(inspect.getsource(func)) == []


def test_benchmark_hooks_resolve(monkeypatch):
    # The benchmark's tracer times these callables by name and counts rounds
    # from play_match's arguments; a hook that no longer resolves is reported
    # absent and its per-layer metrics go missing, and a renamed play_match
    # parameter leaves game.rounds miscounted.
    spec = importlib.util.spec_from_file_location("tracing", BENCHMARKS / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass looks itself up
    spec.loader.exec_module(tracing)
    missing = []
    for hook in tracing.HOOKS:
        target = importlib.import_module(hook.module)
        for name in hook.attr.split("."):
            target = getattr(target, name, None)
        if not callable(target):
            missing.append(f"{hook.module}.{hook.attr}")
    assert not missing
    assert {"payoffs", "horizon", "observer"} <= set(inspect.signature(play_match).parameters)
