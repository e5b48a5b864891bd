"""The test oracles use only public qtrace names, so they cannot share
private wiring with the code they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_no_private_qtrace_names():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    private = [
        f"{node.lineno}: {node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "qtrace"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, "oracles.py imports private qtrace names:\n" + "\n".join(private)
