"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "deperr"


def unread_imports(source: str) -> list[str]:
    """Names a module imports and never reads; an annotation is a read
    (the modules quote no imported name in one)."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    # __init__.py is left out: its imports are the package's re-exports
    assert unread_imports(path.read_text()) == []


def test_unread_import_is_found():
    source = ("from __future__ import annotations\nimport math\n"
              "from x import A, B as C, D\ndef f(a: A) -> D: pass\n")
    assert unread_imports(source) == ["C (line 3)", "math (line 2)"]
