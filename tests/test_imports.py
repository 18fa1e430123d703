"""Static check of the package's imports, with ``ast`` alone."""
import ast
from pathlib import Path

import pytest

import sandgait

_MODULES = sorted(p for p in Path(sandgait.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")  # its imports are re-exports


def _unused_imports(source: str) -> list[str]:
    """The names a module binds by a top-level import and never reads; a
    quoted annotation counts as a read of the names it holds."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]: node.lineno
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    annotations = [n.annotation if hasattr(n, "annotation") else n.returns
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign, ast.FunctionDef))]
    nodes = [*ast.walk(tree), *(
        sub for a in annotations if isinstance(a, ast.Constant)
        and isinstance(a.value, str)
        for sub in ast.walk(ast.parse(a.value, mode="eval")))]
    read = {n.id for n in nodes
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read]


@pytest.mark.parametrize("path", _MODULES, ids=[p.stem for p in _MODULES])
def test_no_unused_top_level_import(path):
    assert _unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\n"
              "from .errors import FormatError, read_text\n"
              "def f(x) -> 'FormatError':\n    return x\n")
    assert _unused_imports(source) == ["line 2: math", "line 3: read_text"]


def _package_imports(source: str) -> set[str]:
    """The sandgait modules a module imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                names.add(node.module.split(".")[0])
            elif node.level:
                names.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("sandgait."):
                names.add(node.module.split(".")[1])
            elif node.module == "sandgait":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("sandgait."))
    return names


@pytest.mark.parametrize("module", ["kinematics", "dynamics"])
def test_segment_modules_read_no_schema(module):
    # the marker schema is read by the pipeline alone: kinematics and
    # dynamics take arrays
    source = (Path(sandgait.__file__).parent / f"{module}.py").read_text()
    assert _package_imports(source) & {"ingest", "schema", "pipeline"} == set()


def test_check_finds_a_package_import():
    source = ("from .errors import FormatError\nfrom . import schema\n"
              "def f():\n    import sandgait.ingest\n"
              "    from sandgait.pipeline import RunConfig\n")
    assert _package_imports(source) == {"errors", "schema", "ingest",
                                        "pipeline"}
