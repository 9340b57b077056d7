"""Every name imported into a projpair module is used there, every
private function is referred to outside its own body, and so is every
public function and method, unless __init__.py re-exports it or it is
listed in PUBLIC_WITHOUT_CALLER with the reason it stays.

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


def _functions(tree, private: bool):
    """(qualified name, def) for the module-level functions and the methods
    of module-level classes whose names start with _ (dunder methods
    aside), or for those whose names do not."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = node.name + "." if isinstance(node, ast.ClassDef) else ""
        for d in defs:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and d.name.startswith("_") == private and not d.name.endswith("__")):
                yield prefix + d.name, d


def _references(node) -> list[str]:
    """Every name read and every attribute taken under node."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def _unreferenced(sources: dict[str, str], private: bool):
    """(module, qualified name, def) for the private or public functions
    and methods that nothing outside their own body refers to, by name or
    as an attribute, in any of the sources."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    counts = Counter(ref for tree in trees.values() for ref in _references(tree))
    return [(name, qualified, d)
            for name, tree in trees.items() for qualified, d in _functions(tree, private)
            if counts[d.name] == _references(d).count(d.name)]


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    return sorted(f"{name}: {d.name} (line {d.lineno})"
                  for name, _, d in _unreferenced(sources, private=True))


def uncalled_public_functions(sources: dict[str, str]) -> set[str]:
    """The public functions and methods with no reference outside their
    own body that __init__.py does not re-export."""
    init = ast.parse(sources.get("__init__.py", ""))
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {qualified for _, qualified, _ in _unreferenced(sources, private=False)
            if qualified not in exported}


# Public names with no caller in src/ that stay, each with its reason.
PUBLIC_WITHOUT_CALLER = {
    "FinAbGroup.cyclic": "builds cyclic groups in the README, perfbench and the tests",
    "FinAbGroup.index_of": "the element index of the L^2(X) basis order, a test oracle",
    "FinAbGroup.characters": "all characters of a group, a test oracle for duality",
    "FinAbGroup.trivial_character": "the unit of the character group, a test oracle",
    "SymplecticPairing.standard_hyperbolic":
        "the pairing on L x L-hat that symplectic_decompose is tested on",
    "SymplecticPairing.conjugate": "pulls a pairing back, for the tests' random pairings",
    "HyperbolicDecomposition.reconstructs_pairing":
        "the exhaustive check of a decomposition, a test oracle",
    "scalar_blocks": "the scalars' identity component, for specs built by hand and perfbench",
    "CycMatrix.zeros": "the zero matrix, for tests of kernels and degenerate bases",
    "CycMatrix.diagonal": "diagonal matrices for specs built by hand and by perfbench",
    "CycMatrix.transpose": "a test oracle for rectangular products",
    "CycMatrix.det": "the determinant, a test oracle for rank and inverse",
    "VectorSpan.equals": "span equality, the oracle of the solver tests",
    "Monomial.scale_by": "a scalar times a monomial, how tests state commutation relations",
}


def test_every_private_function_is_referenced():
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in PACKAGE}
    assert unreferenced_private_functions(sources) == []


def test_every_public_function_has_a_caller_or_a_reason():
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in PACKAGE}
    assert uncalled_public_functions(sources) == set(PUBLIC_WITHOUT_CALLER)


def test_the_check_finds_an_uncalled_public_function():
    """A call from another module counts, and so does a re-export by
    __init__.py; a recursive call does not."""
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def exported(): pass\n"
                 "def called(): pass\n"
                 "def recursive(k): return recursive(k - 1)\n"
                 "class C:\n"
                 "    def method(self): pass\n"
                 "    def _private(self): pass\n"),
        "b.py": "from .a import called\ncalled()\n",
    }
    assert uncalled_public_functions(sources) == {"recursive", "C.method"}


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
