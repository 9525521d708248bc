"""Every example must at least parse, import cleanly and build its world.

The examples that build nodes themselves (a few seconds each) run to
completion.  The rest take minutes; these tests catch their bit-rot
(renamed APIs, bad imports, a world whose routes cannot be drawn)
cheaply by compiling each file under ``examples/``, resolving its
imports and constructing every ``World`` it configures, without
executing ``main()``.
"""

import ast
import importlib
import py_compile
import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))
#: The examples that build a fleet of nodes by hand, run end to end.
RUN_TO_COMPLETION = ("coreset_playground.py", "finetune_pretrained.py", "quickstart.py")


@pytest.mark.parametrize("name", RUN_TO_COMPLETION)
def test_example_runs(name, capsys):
    runpy.run_path(str(REPO / "examples" / name), run_name="__main__")
    assert capsys.readouterr().out.strip()


def _calls(tree, names):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names
    ]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_a_library_run_pins_blas_first(path):
    """``python -m repro`` pins GEMM threads itself; a script calling
    ``run_method`` or ``produce`` must, or its digests follow the host."""
    tree = ast.parse(path.read_text())
    if not _calls(tree, {"run_method", "produce"}):
        return
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    first = main.body[0]
    assert _calls(first, {"pin_blas_threads"}), f"{path.name}: main() must pin BLAS first"


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
    calls = _calls(ast.parse(path.read_text()), {"WorldConfig"})
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
