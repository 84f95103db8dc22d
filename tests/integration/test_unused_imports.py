"""No module imports a name it never uses (a stdlib-only lint step).

Every ``.py`` under ``src/ tests/ benchmarks/ examples/`` is parsed, and each
name an ``import`` binds must be referenced somewhere in the same file: as a
name, as the base of an attribute, inside a quoted annotation, or listed in
``__all__``.  ``__init__.py`` files (their imports are re-exports) and
``from __future__`` imports are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FILES = sorted(
    path
    for top in ("src", "tests", "benchmarks", "examples")
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py" and "__pycache__" not in path.parts
)


def _imported(tree):
    """``{bound name: line}`` of every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                        arguments.vararg, arguments.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree):
    """Every name ``tree`` uses, quoted annotations and ``__all__`` included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _referenced(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_the_scan_covers_every_tree():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {
        "src", "tests", "benchmarks", "examples",
    }


def test_the_checker_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Dict, List\n"
        "from json import dumps as to_json\n"
        "__all__ = ['to_json']\n"
        "x: 'List[int]' = sys.argv\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "Dict")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in FILES
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports: " + ", ".join(found)
