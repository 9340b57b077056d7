"""Every name imported into a projpair module is used there, and every
private function is referred to outside its own body.

No linter ships with the project, so this stands in for the unused-import
and dead-code checks: it reads each module's syntax tree with the
standard ast module.  The package's __init__.py is left out of the import
check, since its imports are the public names it re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "projpair"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(p.name for p in SRC.glob("*.py"))


def _imported(tree) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree) -> set[str]:
    """The names read anywhere, quoted annotations such as
    "Monomial | CycMatrix" included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    """A quoted annotation uses its names; a name in any other string does
    not use it."""
    source = ("from __future__ import annotations\n"
              "import math, os\n"
              "from .cyclo import ZERO, CycMatrix as M\n"
              "def f(x: \"M\") -> int:\n"
              "    \"ZERO\"\n"
              "    return math.gcd(x, 2)\n")
    assert unused_imports(source) == ["ZERO (line 3)", "os (line 2)"]


def _private_functions(tree):
    """The module-level functions and the methods of module-level classes
    whose names start with _ (dunder methods aside)."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in defs:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and d.name.startswith("_") and not d.name.endswith("__")):
                yield d


def _references(node) -> list[str]:
    """Every name read and every attribute taken under node."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """The private functions and methods that nothing outside their own
    body refers to, by name or as an attribute, in any of the sources."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    counts = Counter(ref for tree in trees.values() for ref in _references(tree))
    return sorted(f"{name}: {d.name} (line {d.lineno})"
                  for name, tree in trees.items() for d in _private_functions(tree)
                  if counts[d.name] == _references(d).count(d.name))


def test_every_private_function_is_referenced():
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in PACKAGE}
    assert unreferenced_private_functions(sources) == []


def test_the_check_finds_an_unreferenced_private_function():
    """A call from another module or another function counts; a recursive
    call and a name in a string do not."""
    sources = {
        "a.py": ("def _called(): pass\n"
                 "def _recursive(k): return _recursive(k - 1)\n"
                 "class C:\n"
                 "    def __init__(self): self._method()\n"
                 "    def _method(self): pass\n"
                 "    def _unused(self): '_unused'\n"),
        "b.py": "from .a import _called\n_called()\n",
    }
    assert unreferenced_private_functions(sources) == [
        "a.py: _recursive (line 2)", "a.py: _unused (line 6)"]
