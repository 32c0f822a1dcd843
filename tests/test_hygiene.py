"""Static checks on the package source (no pyflakes or ruff is assumed)."""

import ast
import fnmatch
import importlib
import os
import pathlib
import re
import subprocess
import sys

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


@pytest.mark.parametrize("name,home", [("_valid", "triplets.py")])
def test_verdict_fields_stay_in_their_module(name, home):
    assert modules_naming(name) == {home}


def module_level_imports(source: str) -> set:
    """Top-level package names a module imports when it is loaded: import
    statements outside every function body."""
    names = set()
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def test_module_level_imports_are_detected():
    src = ("import scipy.special\nfrom numpy import array\n"
           "class A:\n    import json\n"
           "def f():\n    from scipy import integrate\n")
    assert module_level_imports(src) == {"scipy", "numpy", "json"}


def imported_packages(source: str) -> set:
    """Top-level names of the packages a module imports outside the
    standard library, function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def declared_dependencies() -> set:
    """The package names of ``[project] dependencies`` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
        "dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in deps}


def test_imported_packages_are_detected():
    src = ("from __future__ import annotations\nimport os, numpy.linalg\n"
           "from . import ou\ndef f():\n    from scipy import integrate\n")
    assert imported_packages(src) == {"numpy", "scipy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # loading a module loads nothing beyond the declared dependencies
    assert module_level_imports(path.read_text()) - set(
        sys.stdlib_module_names) <= declared_dependencies()


def test_imports_are_the_declared_dependencies():
    # every third-party import, in function bodies too, is declared, and
    # every declared dependency is imported: numpy and nothing else
    used = set().union(*(imported_packages(p.read_text())
                         for p in SRC.glob("*.py")))
    assert used == declared_dependencies() == {"numpy"}


def relative_imports(source: str, modules) -> set:
    """Names in ``modules`` that a source imports relatively, at module
    level or inside a function body."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module.split(".")[0]] if node.module
                       else [a.name for a in node.names])
    return out & set(modules)


def find_cycle(graph: dict) -> list:
    """A cycle of ``graph`` (node -> successors) as the closed path
    ``[a, ..., a]``, or [] when the graph is acyclic."""
    done = set()

    def visit(node, path):
        if node in path:
            return path[path.index(node):] + [node]
        if node not in done:
            for nxt in sorted(graph.get(node, ())):
                cycle = visit(nxt, path + [node])
                if cycle:
                    return cycle
            done.add(node)
        return []

    for start in sorted(graph):
        cycle = visit(start, [])
        if cycle:
            return cycle
    return []


def test_import_cycles_are_detected():
    src = ("from . import a, __version__\nfrom .b import x\n"
           "def f():\n    from .c import y\n    from ..d import z\n")
    assert relative_imports(src, "abcd") == {"a", "b", "c"}
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle(dict(graph, c=set())) == []


def test_no_import_cycles():
    # each module can be imported on its own, in any order
    names = [p.stem for p in MODULES]
    graph = {p.stem: relative_imports(p.read_text(), names) for p in MODULES}
    assert " -> ".join(find_cycle(graph)) == ""


def optional_params(source: str, module: str) -> dict:
    """``{"module.qualname(param)": (called name, param, position, default)}``
    for every parameter with a default and every dataclass field with a
    default, the default as an AST node.  A method's position skips
    ``self``; ``__init__`` and a dataclass are called by the class name; a
    keyword-only parameter has no position."""
    out = {}

    def visit(node, qual, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                pos = a.posonlyargs + a.args
                if cls and pos and pos[0].arg in ("self", "cls"):
                    pos = pos[1:]
                name, here = ((cls, qual) if child.name == "__init__"
                              else (child.name, f"{qual}.{child.name}"))
                first = len(pos) - len(a.defaults)
                for i, (arg, default) in enumerate(
                        zip(pos[first:], a.defaults), first):
                    out[f"{here}({arg.arg})"] = (name, arg.arg, i, default)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out[f"{here}({arg.arg})"] = (name, arg.arg, None,
                                                     default)
                visit(child, f"{qual}.{child.name}", None)
            elif isinstance(child, ast.ClassDef):
                here = f"{qual}.{child.name}"
                if any("dataclass" in ast.unparse(d)
                       for d in child.decorator_list):
                    fields = [f for f in child.body
                              if isinstance(f, ast.AnnAssign) and not (
                                  isinstance(f.value, ast.Call) and any(
                                      k.arg == "init" for k in f.value.keywords))]
                    for i, f in enumerate(fields):
                        if f.value is not None:
                            out[f"{here}({f.target.id})"] = (
                                child.name, f.target.id, i, f.value)
                visit(child, here, child.name)
            else:
                visit(child, qual, cls)

    visit(ast.parse(source), module, None)
    return out


def call_sites(sources) -> dict:
    """``{called name: [call node, ...]}`` over all calls."""
    sites = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                sites.setdefault(name, []).append(node)
    return sites


def is_literal(node, default) -> bool:
    """Whether an argument is the literal value of its parameter's default."""
    try:
        return ast.literal_eval(node) == ast.literal_eval(default)
    except (ValueError, TypeError):
        return False


def sets_option(call, param, index, default) -> bool:
    """Whether a call sets an option to anything but its default literal; a
    starred argument fills every position and ``**kw`` every keyword."""
    for k in call.keywords:
        if k.arg is None or k.arg == param and not is_literal(k.value, default):
            return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index and not is_literal(call.args[index], default)


def unset_options(modules, sources, allowed=()) -> list:
    """Optional parameters of ``modules`` (name, source pairs) that no call
    in ``sources`` sets by keyword or by position to a value other than the
    default's own literal, less the ``allowed`` patterns."""
    sites = call_sites(sources)
    out = []
    for module, source in modules:
        for key, (name, param, index, default) in optional_params(
                source, module).items():
            if (any(sets_option(c, param, index, default)
                    for c in sites.get(name, ()))
                    or any(fnmatch.fnmatchcase(key, p) for p in allowed)):
                continue
            out.append(key)
    return sorted(out)


def test_unset_options_are_detected():
    lib = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
           "class K:\n    def m(self, x=0, y=0):\n        pass\n"
           "@dataclass(frozen=True)\nclass C:\n    a: int\n    b: int = 0\n"
           "    c: int = 1\n    v: bool = field(default=False, init=False)\n")
    calls = "f(1, 2, c=3)\nk.m(5)\nC(1, 2)\n"
    assert unset_options([("lib", lib)], [lib, calls]) == [
        "lib.C(c)", "lib.K.m(y)", "lib.f(d)"]
    assert unset_options([("lib", lib)], [lib, calls, "C(**kw)\nf(*a)\n"],
                         allowed=("lib.K.*",)) == ["lib.f(d)"]
    # passing the default's own literal leaves the option at its one value
    defaults = "f(1, 1, c=2, d=4)\nk.m(0, y=1)\nC(1, 0, 2)\n"
    assert unset_options([("lib", lib)], [lib, defaults]) == [
        "lib.C(b)", "lib.K.m(x)", "lib.f(b)", "lib.f(c)"]


# optional parameters set from outside any call the check can read
SET_ELSEWHERE = (
    "suites.suite_*(seed)",          # called as SUITES[name](seed)
    "triplets.poisson_unit(rate)",   # public API that tests use
    # public API whose tests vary them; the package passes the default
    "sampling.sample(t)",
    "measures.log_moment(p)",
)


def test_every_option_has_a_caller():
    # an optional parameter that no command, suite, demo or benchmark sets
    # is a constant in disguise
    sources = [p.read_text() for d in ("src", "demos", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    modules = [(p.stem, p.read_text()) for p in MODULES]
    assert unset_options(modules, sources, SET_ELSEWHERE) == []


SCIPY_FREE = {
    "import": "import semiself",
    "edge-map": (
        "import json, os, sys, tempfile\n"
        "from semiself import cli\n"
        "d = tempfile.mkdtemp()\n"
        "spec = os.path.join(d, 'edge.json')\n"
        "json.dump({'schema': 1, 'levy': [{'kind': 'lattice', "
        "'direction': [1.0], 'base': 2.0, 'anchor': 1.0, 'segments': "
        "[{'w': 1.0, 'r': 1.0, 'kmin': 1, 'kmax': 'inf', 'power': 3}]}]}, "
        "open(spec, 'w'))\n"
        "assert cli.main(['map', spec, '--b', '2', '--grid', '2:3', "
        "'--tol', '1e-4', '--out', os.path.join(d, 'out')]) == 0\n"),
    "verify-all": (
        "import os, tempfile\n"
        "from semiself import cli\n"
        "out = os.path.join(tempfile.mkdtemp(), 'summary.json')\n"
        "assert cli.main(['verify', '--suite', 'all', '--seed', '42', "
        "'--out', out]) == 0\n")}


@pytest.mark.parametrize("name", SCIPY_FREE)
def test_scipy_stays_unloaded(name):
    code = SCIPY_FREE[name] + "\nimport sys\nassert 'scipy' not in sys.modules\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
