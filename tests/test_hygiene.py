"""Static checks on the package source (no pyflakes or ruff is assumed)."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semiself"
# __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_unused_imports_are_detected():
    src = "import os\nimport math as m\nfrom a import b, c\nprint(m.pi, c)\n"
    assert unused_imports(src) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def modules_naming(name: str) -> set:
    """Source modules that mention ``name`` as a name, an attribute or a
    string (``object.__setattr__`` takes it as a string)."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.Constant) and node.value == name):
                out.add(path.name)
    return out


@pytest.mark.parametrize("name,home", [("_valid", "triplets.py"),
                                       ("_log_finite", "measures.py")])
def test_verdict_fields_stay_in_their_module(name, home):
    assert modules_naming(name) == {home}


def traced_layers() -> tuple:
    """The ``TRACED`` tuple of the benchmark's layer tracer, read as text."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no TRACED tuple")


def test_traced_layers_resolve():
    missing = []
    for module, attr in traced_layers():
        obj = importlib.import_module(f"semiself.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_exports_resolve():
    # a stale name in __all__ breaks ``from semiself import *``
    import semiself
    assert [n for n in semiself.__all__ if not hasattr(semiself, n)] == []
