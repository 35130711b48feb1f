"""Rules on the package source and the demos, read with ast."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nyldon"
DEMOS = ROOT / "demos"


def test_no_bare_asserts():
    # python -O strips assert statements, so a check written as one
    # silently stops checking; raise AssertionError (or ValueError) instead
    for directory in (SRC, DEMOS):
        sources = sorted(directory.glob("*.py"))
        assert sources, f"no sources under {directory}"
        found = [
            f"{path.name}:{node.lineno}"
            for path in sources
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == [], f"bare assert statements in {directory.relative_to(ROOT)}: {', '.join(found)}"


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


def test_no_unused_imports():
    # an import nothing reads is dead weight at start-up and hides what a
    # module really depends on; a deliberate one says so with `# noqa: F401`
    # (__init__.py imports only to re-export)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{path.name}:{alias.lineno} {name}")
    assert found == [], f"unused imports in src/nyldon: {', '.join(found)}"


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10; newer syntax would
    # pass on a newer interpreter and break on the oldest one promised
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_cli_handlers_leave_the_exit_status_to_main():
    # main alone maps an outcome to an exit status: a handler returns
    # nothing and reports a failure by raising ValueError, never by
    # returning a code or writing its own error line
    path = SRC / "cli.py"
    handlers = [
        node for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert handlers, "no _cmd_* handlers in cli.py"
    found = [
        f"{handler.name}:{node.lineno}"
        for handler in handlers
        for node in ast.walk(handler)
        if (isinstance(node, ast.Return) and node.value is not None)
        or (isinstance(node, ast.Attribute) and node.attr == "stderr")
    ]
    assert found == [], f"cli handlers that return a value or write to stderr: {', '.join(found)}"


def test_rotation_scans_and_oracle_imports_stay_in_their_modules():
    # the list of every rotation is a brute-force reference: only oracle.py
    # defines or calls it, and only the CLI and the package's re-exports
    # import oracle.  Three references outside oracle stay on purpose:
    # codes.in_code_star and conjugacy.nyldon_conjugate_bruteforce, which
    # bench/ looks up by module (`conjugate --verify` also runs the second),
    # and codes.nyldon_comma_free_classification, the closed-form answer
    # the comma-free CLI path gives.  bench/ also looks up the bounded
    # search codes.is_circular_bounded by module.
    rotation_uses, oracle_imports = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if path.name != "oracle.py" and (
                (isinstance(node, ast.FunctionDef) and node.name == "rotations")
                or (isinstance(node, ast.Call)
                    and "rotations" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))
            ):
                rotation_uses.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # `from .oracle import f`, and also `from . import oracle`
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if "oracle" in (m.split(".")[-1] for m in modules) and path.name not in ("cli.py", "__init__.py"):
                oracle_imports.append(f"{path.name}:{node.lineno}")
    assert rotation_uses == [], f"rotations outside oracle.py: {', '.join(rotation_uses)}"
    assert oracle_imports == [], f"oracle imported outside cli.py and __init__.py: {', '.join(oracle_imports)}"


def test_test_only_references_live_in_oracle():
    # these have only test, demo, acceptance or benchmark-table callers, so
    # they are references: oracle.py alone defines them, and the package
    # still re-exports each, so `from nyldon import ...` keeps working
    import nyldon

    moved = {"apply_permutation", "reverse_permutation", "forbidden_prefix_family",
             "nyldon_comma_free_table"}
    homes = sorted(
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in moved
    )
    assert homes == sorted(f"oracle.py:{name}" for name in moved)
    for name in sorted(moved):
        assert getattr(nyldon, name).__module__ == "nyldon.oracle", name
