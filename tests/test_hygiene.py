"""Static checks on the package source (no pyflakes or ruff is assumed)."""

import ast
import fnmatch
import importlib
import math
import os
import pathlib
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # scipy costs most of the start-up; only the commands that need it load it
    assert "scipy" not in module_level_imports(path.read_text())


def optional_params(source: str, module: str) -> dict:
    """``{"module.qualname(param)": (called name, param, position)}`` for
    every parameter with a default and every dataclass field with a default.
    A method's position skips ``self``; ``__init__`` and a dataclass are
    called by the class name; a keyword-only parameter has no position."""
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
                for i, arg in enumerate(pos[first:], first):
                    out[f"{here}({arg.arg})"] = (name, arg.arg, i)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out[f"{here}({arg.arg})"] = (name, arg.arg, None)
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
                            out[f"{here}({f.target.id})"] = (child.name,
                                                             f.target.id, i)
                visit(child, here, child.name)
            else:
                visit(child, qual, cls)

    visit(ast.parse(source), module, None)
    return out


def call_sites(sources) -> dict:
    """``{called name: (most positional arguments, keyword names)}`` over all
    calls; a starred argument fills every position, ``**kw`` adds None."""
    sites = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                npos = (math.inf if any(isinstance(a, ast.Starred)
                                        for a in node.args) else len(node.args))
                most, kws = sites.get(name, (0, set()))
                sites[name] = (max(most, npos),
                               kws | {k.arg for k in node.keywords})
    return sites


def unset_options(modules, sources, allowed=()) -> list:
    """Optional parameters of ``modules`` (name, source pairs) that no call
    in ``sources`` sets by keyword or by position, less the ``allowed``
    patterns."""
    sites = call_sites(sources)
    out = []
    for module, source in modules:
        for key, (name, param, index) in optional_params(source, module).items():
            npos, kws = sites.get(name, (0, set()))
            if (param in kws or None in kws
                    or index is not None and npos > index
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


# optional parameters set from outside any call the check can read
SET_ELSEWHERE = (
    "*(lattice)",                    # sum_over_measure calls f(points, lattice=)
    "measures._lattice_log_moment.f(_*)",    # default-bound closure arguments
    "suites.suite_*(seed)",          # called as SUITES[name](seed)
    "triplets.poisson_unit(rate)",   # public API that tests use
    "triplets.cumulant_at(arg_pow)",
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
        "'--tol', '1e-4', '--out', os.path.join(d, 'out')]) == 0\n")}


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
