"""Every name an example imports from ``repro`` exists.

CI runs the examples on one leg only, so a change that deletes a name an
example imports would pass every other leg.  The examples are parsed,
not run: this checks their ``repro`` imports and nothing else.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def _repro_imports(path: pathlib.Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` of each ``repro`` import; ``name`` is ``None``
    for a plain ``import repro...``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module.split(".")[0] == "repro":
                found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return found


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    imports = _repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            # ``from package import submodule`` names a module, not an attribute.
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                pytest.fail(f"{path.name}: cannot import {name!r} from {module_name}")
