"""Static checks on the package source."""

import argparse
import ast
from pathlib import Path

import hedgelab
from hedgelab.cli import _add_config_flags
from hedgelab.harness import CONFIG_KEYS

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
