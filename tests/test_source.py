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


def test_no_exhaustive_word_scans_in_production():
    # filtering all k**n words belongs to the oracle; production code
    # builds the words it needs
    scans = {"words_of_length", "words_upto"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("words.py", "oracle.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) in scans or getattr(node.func, "id", None) in scans)
    ]
    assert found == [], f"exhaustive word scans outside words.py and oracle.py: {', '.join(found)}"
