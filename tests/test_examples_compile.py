"""Every example must at least parse and import cleanly.

Full example runs take minutes; these tests catch bit-rot (renamed
APIs, bad imports) cheaply by compiling each file under ``examples/``
and resolving its imports without executing ``main()``.
"""

import ast
import importlib
import py_compile
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Every module an example imports must exist with the used names."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if not node.module.startswith("repro"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module} has no {alias.name}"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    importlib.import_module(alias.name)


def test_examples_have_docstrings_and_main():
    for path in EXAMPLES:
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a module docstring"
        assert "__main__" in path.read_text(), f"{path.name} lacks a main guard"


def test_at_least_five_examples():
    assert len(EXAMPLES) >= 5
