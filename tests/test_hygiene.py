"""Source hygiene of the package and of the test suite itself."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
# Parametrize ids: a test file by its name, a package module under ritesolver/.
FILES = {p.name: p for p in sorted(TESTS.glob("*.py"))}
FILES.update({f"ritesolver/{p.name}": p
              for p in sorted((TESTS.parent / "src" / "ritesolver").glob("*.py"))})


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    A name listed in the module's __all__ is read by its importers, and an
    import on a line marked `# noqa: F401` is kept for them on purpose.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used and "# noqa: F401" not in lines[line - 1]]


def test_unused_import_check_finds_one():
    assert unused_imports("import math\nimport os\nos.sep\n") == ["line 1: math"]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from a import (\n    b,  # noqa: F401\n    c,\n)\n") == ["line 3: c"]


@pytest.mark.parametrize("name", FILES)
def test_no_unused_imports(name):
    assert unused_imports(FILES[name].read_text()) == []
