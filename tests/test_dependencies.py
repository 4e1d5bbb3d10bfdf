"""The package has no runtime dependencies outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import oriented_ideals

PACKAGE_DIR = Path(oriented_ideals.__file__).parent


def absolute_imports(tree: ast.AST):
    """Every module named by an import statement that is not relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(sources) >= 8
    outside = [
        f"{path.relative_to(PACKAGE_DIR)}: {name}"
        for path in sources
        for name in absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
