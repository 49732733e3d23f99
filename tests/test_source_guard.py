"""Dead-code guards on the package source, read with ``ast`` alone.

Every name a module of ``src/ppalg`` imports must be read in that module,
and every module-level function must have a reader somewhere in the
package: a private one always, a public one unless the package exports it
from ``__init__.py``.  So must every method in a class body, dunders aside,
unless ``METHODS_WITHOUT_READERS`` names it.  A helper left behind after its
last caller moved on, or an import its module stopped reading, fails here.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ppalg"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")

# (class, method) pairs that no code in the package reads, each with its reason
METHODS_WITHOUT_READERS = {
    ("Field", "nonzero_elements"),  # read only by the benchmark, until its next change points it at elements()
    ("ModuliScan", "class_count"),  # public; the moduli law suite is to read it
    ("Matrix", "rref"),  # public, read by the benchmark (bench/layers.py) and the tests: the dense echelon form
    ("Matrix", "scale"),  # public, read by the benchmark (bench/workloads.py) and the tests: combination builds its rows with field ops
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names an import statement binds, with its line; ``from __future__`` binds none."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return out


def readers(name: str, skip: ast.AST) -> int:
    """How many times the package reads ``name``, as a name or an attribute, outside the node ``skip``."""
    inside = {id(node) for node in ast.walk(skip)}
    return sum(
        (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)
        for tree in TREES.values()
        for node in ast.walk(tree)
        if id(node) not in inside
    )


def exported() -> set[str]:
    return {alias.name for node in ast.walk(TREES["__init__.py"]) if isinstance(node, ast.ImportFrom) for alias in node.names}


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    tree = TREES[module]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = sorted((line, name) for name, line in imported_names(tree).items() if name not in read)
    assert unread == [], f"{module} imports names it never reads: {unread}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_module_level_function_has_a_reader(module):
    public = exported()
    dead = [
        node.name
        for node in TREES[module].body
        if isinstance(node, ast.FunctionDef)
        and (node.name.startswith("_") or node.name not in public)
        and not readers(node.name, node)
    ]
    assert dead == [], f"{module} defines functions nothing in the package reads: {dead}"


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def methods(tree: ast.Module):
    """(class, method node) for every method defined in a class body at module level, dunders aside."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield node.name, item


@pytest.mark.parametrize("module", MODULES)
def test_every_method_has_a_reader(module):
    dead = [
        (cls, node.name)
        for cls, node in methods(TREES[module])
        if (cls, node.name) not in METHODS_WITHOUT_READERS and not readers(node.name, node)
    ]
    assert dead == [], f"{module} defines methods nothing in the package reads: {dead}"


def test_no_module_touches_an_instance_dict_and_representation_caches_no_property():
    # a module's relation verdict is a dataclass field, decided when the module is built
    touched = [
        (module, node.lineno)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    ]
    assert touched == [], f"modules reach into an instance __dict__: {touched}"
    rep = next(node for node in TREES["rep.py"].body if isinstance(node, ast.ClassDef) and node.name == "Representation")
    cached = [
        item.name
        for item in rep.body
        if isinstance(item, ast.FunctionDef)
        for deco in item.decorator_list
        for node in ast.walk(deco)
        if (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
    ]
    assert cached == [], f"Representation caches {cached}"


def test_every_exempt_method_exists_and_has_no_reader():
    found = {(cls, node.name): node for tree in TREES.values() for cls, node in methods(tree)}
    assert METHODS_WITHOUT_READERS <= found.keys()
    assert [pair for pair in sorted(METHODS_WITHOUT_READERS) if readers(pair[1], found[pair])] == []
