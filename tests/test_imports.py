"""No linter is configured for this repository, so these scans stand in for
flake8's F401 and for an import-placement rule.  Every name a library module
imports must be used in it, unless the import statement carries
`# noqa: F401`.  Imports sit at module level, except in graph.py from
.coloring: coloring builds on Graph and so imports graph, and the census
borrows coloring's component codes, the one known import cycle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "taulab"
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


def function_level_imports(module: str, source: str) -> list[str]:
    """'line k' for each import made inside a function, other than the
    allowed cycle: graph.py importing from .coloring."""
    found = set()  # a set: a nested function's imports are walked twice
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            cycle = (isinstance(node, ast.ImportFrom) and node.level == 1
                     and node.module == "coloring")
            if not (module == "graph.py" and cycle):
                found.add(node.lineno)
    return [f"line {k}" for k in sorted(found)]


def test_scan_finds_a_function_level_import():
    source = "def f():\n    from .coloring import x\n    def g():\n        from .catalog import y\n"
    assert function_level_imports("graph.py", source) == ["line 4"]
    assert function_level_imports("cli.py", source) == ["line 2", "line 4"]


@pytest.mark.parametrize("module", MODULES)
def test_imports_at_module_level(module):
    assert function_level_imports(module, (SRC / module).read_text()) == []
