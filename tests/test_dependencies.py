"""numpy is the one runtime dependency: ``src/graphmgs`` imports nothing else
outside the standard library and itself.  Nor does it read or set environment
variables: what it does depends on its arguments and on what it measures, such
as the CPUs the process may run on, never on a setting outside them."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphmgs"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "graphmgs"}
ENVIRONMENT = {"environ", "getenv", "putenv"}


def _trees():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in modules]


def test_runtime_imports_are_stdlib_numpy_or_own():
    foreign = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports are graphmgs itself
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not foreign


def test_no_environment_access():
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                          for alias in node.names if alias.name in ENVIRONMENT]
    assert not found
