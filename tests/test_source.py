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
LAZY_ONLY = {"mpmath", "cmath", "dataclasses", "inspect"}


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
