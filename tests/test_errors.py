from __future__ import annotations

import ast
from pathlib import Path

import vulncontext

PACKAGE = Path(vulncontext.__file__).parent


def _raised_names(tree: ast.AST) -> set[str]:
    """The class names that ``raise X`` or ``raise X(...)`` statements name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_leaf_error_is_raised_somewhere():
    classes = [
        node
        for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    ]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    leaves = {node.name for node in classes} - bases
    raised = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name != "errors.py":
            raised |= _raised_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(leaves - raised) == []
