"""Every example must at least parse, import cleanly and build its world.

Full example runs take minutes; these tests catch bit-rot (renamed
APIs, bad imports, a world whose routes cannot be drawn) cheaply by
compiling each file under ``examples/``, resolving its imports and
constructing every ``World`` it configures, without executing ``main()``.
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


def _world_configs(path):
    """Keyword arguments of every ``WorldConfig(...)`` call an example makes."""
    calls = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "WorldConfig"
    ]
    return [{kw.arg: ast.literal_eval(kw.value) for kw in call.keywords} for call in calls]


@pytest.mark.parametrize(
    "path", [p for p in EXAMPLES if _world_configs(p)], ids=lambda p: p.name
)
def test_example_worlds_construct(path):
    """Compile-only let ``analysis_walkthrough.py`` die in ``build_context``
    for several PRs: its world had no route of ``min_route_length``."""
    from repro.sim.world import World, WorldConfig

    for kwargs in _world_configs(path):
        World(WorldConfig(**kwargs))


def test_every_example_world_is_checked():
    """An example takes its world from a ``WorldConfig`` literal (checked
    above) or from the registered ``CI`` scale (built by the suite)."""
    unchecked = {p.name for p in EXAMPLES if not _world_configs(p)}
    assert unchecked == {"fleet_training.py"}


def test_examples_have_docstrings_and_main():
    for path in EXAMPLES:
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a module docstring"
        assert "__main__" in path.read_text(), f"{path.name} lacks a main guard"


def test_at_least_five_examples():
    assert len(EXAMPLES) >= 5
