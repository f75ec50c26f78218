import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "zetapoly").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants must survive python -O, which strips assert statements
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}; raise instead"


# modules that only some functions need, or that no command needs: importing
# one at module level would load it in every command that loads the module
LAZY_ONLY = {"mpmath", "dataclasses", "inspect"}


def module_level_imports(tree):
    """The top-level names of every import that runs when the module loads:
    everything outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_import_of_lazy_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(LAZY_ONLY.intersection(module_level_imports(tree)))
    assert not found, f"{path.name}: module-level import of {found}; import inside the function"


def test_module_level_imports_see_nested_statements():
    tree = ast.parse(
        "import os.path\nif True:\n    from mpmath import mp\nclass C:\n    import cmath\n"
        "def f():\n    import inspect\nfrom . import x\n"
    )
    assert sorted(module_level_imports(tree)) == ["cmath", "mpmath", "os"]


# imports that no command needs, barred at any level: argparse (with the
# gettext and locale it loads), __future__, typing and pathlib (annotations
# use builtins and collections.abc, files are written by open), and cmath
# (no root is found in floating point)
NEVER = {"argparse", "__future__", "typing", "pathlib", "cmath"}


def all_imports(tree):
    """The top-level names of every absolute import in the module, function
    bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_of_startup_only_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(NEVER.intersection(all_imports(tree)))
    assert not found, f"{path.name}: import of {found}; no command needs it"


def test_all_imports_see_function_bodies():
    tree = ast.parse("from __future__ import annotations\ndef f():\n    import argparse.x\nfrom . import y\n")
    assert sorted(all_imports(tree)) == ["__future__", "argparse"]


# the integer product kernels, reached only through the one dispatcher
PRODUCT_KERNELS = {"_kronecker_mul", "_schoolbook_mul"}
DISPATCHER = "_mul"


def kernel_references(tree):
    """(enclosing function, name) for every read of a product kernel's
    name, called or not, outside the kernels' own definitions; None for a
    read at module or class level."""
    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in PRODUCT_KERNELS:
            yield owner, node.id
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCT_KERNELS:
            yield owner, node.attr
        for child in ast.iter_child_nodes(node):
            yield from walk(child, owner)

    for owner, name in walk(tree, None):
        if owner not in PRODUCT_KERNELS:
            yield owner, name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_product_kernels_only_behind_the_dispatcher(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(set(kernel_references(tree)) - {(DISPATCHER, name) for name in PRODUCT_KERNELS})
    assert not found, f"{path.name}: product kernels used outside {DISPATCHER}: {found}"


def test_kernel_references_see_aliases_and_attributes():
    tree = ast.parse(
        "def _mul(a, b):\n    return _kronecker_mul(a, b)\n"
        "class C:\n    def __mul__(self, o):\n        f = _schoolbook_mul if o else None\n"
        "        return exactcore._kronecker_mul(self, o)\n"
        "def _schoolbook_mul(a, b):\n    return _schoolbook_mul(a[1:], b)\n"
        "g = _schoolbook_mul\n"
    )
    assert sorted(kernel_references(tree), key=str) == [
        ("__mul__", "_kronecker_mul"), ("__mul__", "_schoolbook_mul"),
        ("_mul", "_kronecker_mul"), (None, "_schoolbook_mul"),
    ]


# a module-level list, dict or set that a function fills is a cache no one
# can see or bound: one that kept every (q)_j grew as n^3.  Caches are
# lru_caches, whose size and hits show in cache_info.
DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
MUTATORS = {
    "append", "extend", "insert", "update", "add", "pop", "clear", "popitem", "remove", "discard", "setdefault",
}


def mutated_module_containers(tree):
    """(enclosing function, name) for every mutation, inside a function, of
    a module-level name bound to a list, dict or set display: a mutating
    method call, an item or slice assignment, or a del of an item."""
    containers = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, DISPLAYS):
            containers.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.value, DISPLAYS) and isinstance(node.target, ast.Name):
            containers.add(node.target.id)

    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Lambda):
            owner = "<lambda>"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
            changed = [node.func.value]
        elif isinstance(node, (ast.Assign, ast.Delete)):
            changed = [t.value for t in node.targets if isinstance(t, ast.Subscript)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and isinstance(node.target, ast.Subscript):
            changed = [node.target.value]
        else:
            changed = []
        if owner is not None:
            yield from ((owner, t.id) for t in changed if isinstance(t, ast.Name) and t.id in containers)
        for child in ast.iter_child_nodes(node):
            yield from walk(child, owner)

    yield from walk(tree, None)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_cache(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(set(mutated_module_containers(tree)))
    assert not found, f"{path.name}: module-level containers mutated in functions: {found}; use an lru_cache"


def test_mutated_module_containers_see_every_form():
    tree = ast.parse(
        "CACHE = [1]\nTABLE = {k: k for k in 'ab'}\nSEEN = {0}\nFIXED = {'a': 1}\nFIXED['b'] = 2\n"
        "KEYS: set = {1}\nCALLED = list()\n"
        "def f(x):\n    CACHE.append(x)\n    TABLE[x] += 1\n    CALLED.append(x)\n    SEEN = {x}\n"
        "    return FIXED.get(x)\n"
        "class C:\n    def g(self):\n        del TABLE['a']\n        KEYS.add(1)\n        CACHE[1:] = []\n"
        "        self.CACHE.append(1)\n"
        "h = lambda: {1}.pop() or TABLE.clear()\n"
    )
    assert sorted(mutated_module_containers(tree)) == [
        ("<lambda>", "TABLE"), ("f", "CACHE"), ("f", "TABLE"),
        ("g", "CACHE"), ("g", "KEYS"), ("g", "TABLE"),
    ]
