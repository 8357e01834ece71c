"""Tier-1 guard: every module of the package is reached by something.

A module passes when at least one of its public top-level names is used
by another ``repro`` module or by a file under ``benchmarks/`` or
``examples/`` (the paper artefacts and demos).  Import lines and package
``__init__`` re-exports are not uses, and neither are the tests: code
that only its own tests reach should be deleted with those tests.

The check is ``ast`` only.  It matches names, not bindings, so an
unrelated identifier of the same spelling can keep a module alive.  A
module reached only through ``getattr`` or an import for its side
effects would be flagged; none is today.  The entry points
(``__init__.py``, ``__main__.py``, ``cli.py``) are reached by the
interpreter and are not checked.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
PACKAGE = pathlib.Path(repro.__file__).parent
ENTRY_POINTS = {"__init__.py", "__main__.py", "cli.py"}


def public_names(tree: ast.Module) -> set:
    """Names a module defines at top level without a leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def used_names(tree: ast.Module) -> set:
    """Identifiers a file reads or looks up as attributes (imports excluded)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreached_modules(package: pathlib.Path = PACKAGE, repo_root: pathlib.Path = REPO_ROOT) -> list:
    modules = {path: parse(path) for path in sorted(package.rglob("*.py"))}
    users = [path for path in modules if path.name != "__init__.py"]
    for folder in ("benchmarks", "examples"):
        users += sorted((repo_root / folder).rglob("*.py"))
    files_using = {}  # name -> the files that use it
    for user in users:
        tree = modules[user] if user in modules else parse(user)
        for name in used_names(tree):
            files_using.setdefault(name, set()).add(user)
    return [
        path.relative_to(package).as_posix()
        for path, tree in modules.items()
        if path.name not in ENTRY_POINTS
        and not any(files_using.get(name, set()) - {path} for name in public_names(tree))
    ]


def test_every_module_is_reached_outside_its_tests():
    unreached = unreached_modules()
    assert unreached == [], (
        "modules whose public names nothing in src/repro, benchmarks/ or "
        f"examples/ uses: {unreached}"
    )


# ----------------------------------------------------------------------
# The guard's own rules, on a throw-away repository
# ----------------------------------------------------------------------
def scan(tmp_path, files: dict) -> list:
    """Write ``files`` (path relative to the repo root -> source) and scan them."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return unreached_modules(tmp_path / "src" / "pkg", tmp_path)


LEAF = "def helper():\n    return 1\n"


def test_a_sibling_use_reaches_a_module(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        "src/pkg/user.py": "from .leaf import helper\n\ndef run():\n    return helper()\n",
    })
    assert unreached == ["user.py"]


def test_an_init_reexport_is_not_a_use(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/__init__.py": "from .leaf import helper\n__all__ = [helper]\n",
        "src/pkg/leaf.py": LEAF,
    })
    assert unreached == ["leaf.py"]


def test_an_import_line_is_not_a_use(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        "src/pkg/user.py": "from .leaf import helper\n\nVALUE = 2\n",
        "examples/demo.py": "from pkg.user import VALUE\nprint(VALUE)\n",
    })
    assert unreached == ["leaf.py"]


@pytest.mark.parametrize("folder", ["benchmarks", "examples"])
def test_an_artefact_use_reaches_a_module(tmp_path, folder):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        f"{folder}/nested/use_leaf.py": "from pkg.leaf import helper\nhelper()\n",
    })
    assert unreached == []


def test_a_test_use_is_not_a_use(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        "tests/test_leaf.py": "from pkg.leaf import helper\n\ndef test():\n    helper()\n",
    })
    assert unreached == ["leaf.py"]


def test_private_names_and_self_uses_do_not_reach_a_module(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": "def _hidden():\n    return 1\n\ndef helper():\n    return _hidden()\n\nhelper()\n",
        "src/pkg/user.py": "from .leaf import _hidden\n\ndef run():\n    return _hidden()\n",
        "examples/demo.py": "from pkg.user import run\nrun()\n",
    })
    assert unreached == ["leaf.py"]


def test_entry_points_are_not_checked(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/__init__.py": "VERSION = 1\n",
        "src/pkg/__main__.py": "def main():\n    pass\n",
        "src/pkg/cli.py": "def main():\n    pass\n",
    })
    assert unreached == []
