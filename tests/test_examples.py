"""Sanity checks for the example scripts.

Full example runs belong to the user (`python examples/<name>.py`); here we
make sure every script parses, exposes a ``main`` entry point, and that the
README's quickstart actually executes end to end.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLE_FILES}
    assert "quickstart.py" in names
    assert len(names) >= 3  # the deliverable minimum — we ship more


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_parses_and_has_main(path):
    tree = ast.parse(path.read_text())
    func_names = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert "main" in func_names, f"{path.name} must define main()"
    # a module docstring explaining the scenario
    assert ast.get_docstring(tree), f"{path.name} needs a docstring"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_guards_main(path):
    source = path.read_text()
    assert 'if __name__ == "__main__"' in source


def test_example_imports_resolve():
    """Every module an example imports must exist in the package."""
    for path in EXAMPLE_FILES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro"):
                    module = __import__(node.module, fromlist=["_"])
                    for alias in node.names:
                        assert hasattr(module, alias.name), (
                            f"{path.name}: {node.module}.{alias.name} missing"
                        )


def test_readme_python_blocks_run():
    """The README's quickstart is code, not prose: every ``python`` block
    runs, in order, in one namespace."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL)
    assert blocks, "README.md has no python block"
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
