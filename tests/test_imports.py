"""No linter is configured for this repository, so these scans stand in for
flake8's F401, for an import-placement rule and for dead-code checks.
Every name a library module imports must be used in it, unless the import
statement carries `# noqa: F401`.  Imports sit at module level, with no
exception.  Every module-level private name must be read somewhere in the
library, and every defaulted parameter of a public library function must be
passed by some call in the repository's code."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "taulab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """'name (line k)' for each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "from typing import Optional, Sequence\nimport os  # noqa: F401\nx: Sequence = ()\n"
    assert unused_imports(source) == ["Optional (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def function_level_imports(source: str) -> list[str]:
    """'line k' for each import made inside a function."""
    found = set()  # a set: a nested function's imports are walked twice
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.add(node.lineno)
    return [f"line {k}" for k in sorted(found)]


def test_scan_finds_a_function_level_import():
    source = "def f():\n    from .coloring import x\n    def g():\n        from .catalog import y\n"
    assert function_level_imports(source) == ["line 2", "line 4"]


@pytest.mark.parametrize("module", MODULES)
def test_imports_at_module_level(module):
    assert function_level_imports((SRC / module).read_text()) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """'module: name' for each module-level private name (one leading
    underscore) that no module in sources reads, as a name or as an
    attribute; the module's own uses count."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_scan_finds_an_unreferenced_private_name():
    sources = {
        "a.py": "_used = 1\n_dead = 2\n__all__ = []\ndef _helper():\n    return _used\n",
        "b.py": "from .a import _helper\nclass _Gone:\n    pass\nx = _helper()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _dead", "b.py: _Gone"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def unpassed_defaults(library: list[str], callers: list[str]) -> list[str]:
    """'function: parameter' for each defaulted parameter of a public
    module-level function in library that no call in callers passes, by
    position or by name.  Calls match by the called name alone, and one
    with *args or **kwargs passes every parameter."""
    params: list[tuple[str, str, int]] = []
    for source in library:
        for fn in ast.parse(source).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params += [(fn.name, a.arg, i) for i, a in enumerate(positional) if i >= first]
            params += [(fn.name, a.arg, -1)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    passed: set[tuple[str, object]] = set()
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            passed.update((name, i) for i in range(len(call.args)))
            passed.update((name, k.arg) for k in call.keywords)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            if starred or any(k.arg is None for k in call.keywords):
                passed.add((name, "*"))
    return [f"{fn}: {arg}" for fn, arg, i in params
            if not {(fn, "*"), (fn, i), (fn, arg)} & passed]


def test_scan_finds_an_unpassed_default():
    library = [
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "def h(y=0):\n    pass\n"
        "def _k(z=0):\n    pass\n"
    ]
    callers = ["f(0, 5)\nm.f(0, d=4)\ng(**kw)\nh(*args)\n"]
    assert unpassed_defaults(library, callers) == ["f: c"]


# defaults that no program call passes, each kept for the reason given
TEST_ONLY_DEFAULTS = {
    "main: argv": "the console script calls main() bare",
    "toy_lagrange_opt: tol": "the toy solver is one of the paper checks, "
    "and its feasibility tolerance is the usual knob of a numerical solve",
}


def test_every_default_is_passed_somewhere():
    # an option is justified only when callers other than tests need
    # different values, so calls in tests (perfbench's too) do not count
    library = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    callers = [p.read_text() for top in ("src", "scripts", "perfbench")
               for p in sorted((ROOT / top).rglob("*.py"))
               if "tests" not in p.relative_to(ROOT).parts]
    unpassed = unpassed_defaults(library, callers)
    assert [d for d in unpassed if d not in TEST_ONLY_DEFAULTS] == []
    assert sorted(set(TEST_ONLY_DEFAULTS) - set(unpassed)) == []
