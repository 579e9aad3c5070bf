"""Source hygiene of the package and of the test suite itself."""

import ast
import os
import re
import subprocess
import sys
import textwrap
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


ROOT = TESTS.parent
PACKAGE = sorted((ROOT / "src" / "ritesolver").glob("*.py"))


def _docstrings(tree) -> set[int]:
    """ids of the docstring nodes of a module and its classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                found.add(id(body[0].value))
    return found


def references(sources) -> set[str]:
    """Every name a body of code reads: names, attributes, and the words of
    its string constants (tools look functions up by name), not docstrings."""
    refs = set()
    for source in sources:
        tree = ast.parse(source)
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in docs:
                refs.update(re.findall(r"\w+", node.value))
    return refs


def definitions(source: str):
    """(name, line) of the top-level functions and classes of a module and
    the non-dunder methods and properties of its classes."""
    tree = ast.parse(source)
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs.extend((f.name, f.lineno) for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not (f.name.startswith("__") and f.name.endswith("__")))
    return defs


def exported(source: str) -> set[str]:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unreferenced(modules, readers) -> list[str]:
    """Definitions in modules that no __all__ names and no reader refers to."""
    public = set().union(*(exported(src) for src in modules.values()))
    refs = references(readers)
    return [f"{name}:{line} {defined}" for name, src in modules.items()
            for defined, line in definitions(src)
            if defined not in public and defined not in refs]


def test_unreferenced_check_finds_one():
    module = textwrap.dedent('''
        __all__ = ["f"]
        def f(): """g is not read here."""
        def g(): pass
        def h(): pass
        class C:
            def __init__(self): pass
            def m(self): pass
            @property
            def p(self): pass
        TARGET = "h"
    ''')
    assert unreferenced({"mod": module}, [module, "C().p"]) == ["mod:4 g", "mod:8 m"]


def test_every_definition_is_exported_or_used():
    # Library code that only tests call belongs in the tests.
    readers = [p.read_text() for p in PACKAGE + sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unreferenced({p.name: p.read_text() for p in PACKAGE}, readers) == []


def unbound_exports(source: str) -> list[str]:
    """Names in a module's __all__ that no top-level def, class or
    assignment of the module binds, such as names it imports to re-export."""
    bound = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return sorted(exported(source) - bound)


def test_unbound_export_check_finds_one():
    module = textwrap.dedent('''
        from os import sep
        import math as m
        Y = 2
        def f(): pass
        class C: pass
        __all__ = ["sep", "m", "Y", "f", "C"]
    ''')
    assert unbound_exports(module) == ["m", "sep"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_exports_are_defined_in_their_module(path):
    # One import route per name: a name is imported from the module that
    # defines it, never re-exported through another.
    assert unbound_exports(path.read_text()) == []


def test_package_runs_without_scipy(tmp_path):
    # numpy is the one numerical dependency: with scipy blocked, every module
    # imports and a whole `ritesolve run` on the builtin cube succeeds. The
    # medium is thin, so the one-cell grid passes the energy balance.
    script = textwrap.dedent('''
        import importlib, json, pkgutil, sys
        from pathlib import Path
        sys.modules["scipy"] = None
        import ritesolver
        for module in pkgutil.iter_modules(ritesolver.__path__):
            importlib.import_module(f"ritesolver.{module.name}")
        from ritesolver import cli
        out = Path(sys.argv[1])
        mesh = cli.generate_case("cube", 1, out)
        config = out / "case.json"
        config.write_text(json.dumps({"mesh": mesh.name, "sigma_a": 0.05, "sigma_s": 0.05}))
        sys.exit(cli.main(["run", "--config", str(config), "--out", str(out / "run")]))
    ''')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "exit status 0" in run.stdout
    assert (tmp_path / "run" / "convergence.csv").is_file()
