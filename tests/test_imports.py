"""No deltalab module carries dead module-level names.

An unused import is dead weight that hides what a module really depends
on.  This parses each module (not the package `__init__`, whose imports
are its public namespace) and checks every name bound by a top-level
import against the names the module reads.  Likewise every module-level
private function or class must be referenced somewhere in the package
outside its own definition, so a helper that a refactor replaced cannot
linger.
"""

import ast
from pathlib import Path

import pytest

import deltalab

PACKAGE = sorted(Path(deltalab.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _names_used(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_private_defs(sources):
    """Module-level `_name` functions and classes no other code refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {name: [_names_used(node) for node in tree.body] for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        for i, node in enumerate(tree.body):
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            elsewhere = [names for other, per_node in used.items()
                         for j, names in enumerate(per_node) if (other, j) != (name, i)]
            if not any(node.name in names for names in elsewhere):
                found.append(f"{name}:{node.lineno}: {node.name}")
    return found


def test_private_helpers_are_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private_defs(sources) == []


def test_private_helper_check_flags_a_leftover():
    sources = {"a.py": "def _used():\n    pass\n\n\ndef _left(n):\n    return _left(n - 1)\n",
               "b.py": "from .a import _used\n\nx = _used()\n"}
    assert unreferenced_private_defs(sources) == ["a.py:5: _left"]
