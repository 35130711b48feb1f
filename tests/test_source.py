"""Rules on the package source itself, read with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nyldon"


def test_no_bare_asserts():
    # python -O strips assert statements, so a check written as one
    # silently stops checking; raise AssertionError (or ValueError) instead
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"bare assert statements in src/nyldon: {', '.join(found)}"
