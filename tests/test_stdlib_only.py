"""The qtrace runtime depends on the Python standard library only."""

import ast
import sys
from pathlib import Path

import qtrace

PACKAGE_DIR = Path(qtrace.__file__).parent


def absolute_imports(path):
    """Top-level module names of every absolute import in a file,
    including imports inside functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    outside = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside, "non-stdlib imports:\n" + "\n".join(outside)
