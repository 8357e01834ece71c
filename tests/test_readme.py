"""README's python code blocks import only the declared public surface.

Every ``from repro... import X`` in a README python block must import, and
``X`` must be listed in the ``__all__`` of its package: the imported module
itself when it is a package, else the package that holds the module
(``repro.config`` -> ``repro``, ``repro.core.engine`` -> ``repro.core``).
A snippet that names something deleted, or something only a
module-internal import reaches, fails here.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def repro_imports():
    """Sorted, distinct ``(module, name)`` pairs of README's ``from repro...`` imports."""
    found = set()
    for block in python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


IMPORTS = repro_imports()


def test_readme_blocks_import_from_repro():
    assert python_blocks()
    assert IMPORTS


@pytest.mark.parametrize(
    "module_name, name", IMPORTS, ids=[f"{module}:{name}" for module, name in IMPORTS]
)
def test_a_readme_import_is_in_its_packages_all(module_name, name):
    module = importlib.import_module(module_name)
    assert hasattr(module, name), f"{module_name} has no {name}"
    if not hasattr(module, "__path__"):
        module_name = module_name.rpartition(".")[0]
    package = importlib.import_module(module_name)
    assert name in package.__all__, f"{name} is not in {module_name}.__all__"
    assert getattr(package, name) is getattr(module, name)
