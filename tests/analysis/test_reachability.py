"""Tier-1 guard: every top-level name of the package is reached by something.

The check is a fixpoint over ``ast``.  It starts from the roots — what runs
without being asked for by name:

* every statement of ``cli.py`` and of each ``__main__.py``;
* every module-level statement of the package that is not a definition,
  an import, ``__all__`` or a docstring (a registration call, a loop that
  patches classes at import);
* every definition decorated by a function the package defines (``@rule(...)``
  registers the check it decorates when the module is imported);
* every file under ``benchmarks/`` and ``examples/`` (the paper artefacts
  and demos).

A top-level name — a function, a class or an assigned name, public or
private — is reached when a root or a reached definition reads it, as an
``ast.Name`` or as the attribute of an ``ast.Attribute``; what a
definition reads counts only once the definition itself is reached.  Import
lines, ``__all__`` entries and string constants (such as the
``repro.analysis.hotpaths`` manifest) are not uses, and neither are the
tests: code that only its own tests reach should be deleted with those
tests.

The closure matches names, not bindings: a name read anywhere in reached
code reaches every top-level definition of that spelling, so an unrelated
identifier (a method or a local of the same spelling) can keep a name
alive.  A name reached only through ``getattr`` would be flagged; none is
today.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
PACKAGE = pathlib.Path(repro.__file__).parent
ENTRY_POINTS = {"__main__.py", "cli.py"}
ARTEFACT_FOLDERS = ("benchmarks", "examples")


def defined_names(node: ast.stmt) -> list:
    """The top-level names ``node`` defines; empty when it is no definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    if targets and all(isinstance(target, ast.Name) for target in targets):
        return [target.id for target in targets]
    return []


def is_skipped(node: ast.stmt) -> bool:
    """Imports, ``__all__`` and docstrings: statements that use nothing."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return True
    return defined_names(node) == ["__all__"]


def used_names(node: ast.AST) -> set:
    """Identifiers ``node`` reads or looks up as attributes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def decorator_names(node: ast.stmt) -> set:
    """The names ``node``'s decorators call or are."""
    names = set()
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreached_names(package: pathlib.Path = PACKAGE, repo_root: pathlib.Path = REPO_ROOT) -> list:
    """``"path:line name"`` of every top-level name the closure does not reach."""
    definitions = {}  # name -> [(path, node)]
    roots = set()  # names the roots read
    for path in sorted(package.rglob("*.py")):
        for node in parse(path).body:
            if is_skipped(node):
                continue
            names = defined_names(node)
            if path.name in ENTRY_POINTS or not names:
                roots |= used_names(node)
                continue
            for name in names:
                definitions.setdefault(name, []).append((path, node))
    for folder in ARTEFACT_FOLDERS:
        for path in sorted((repo_root / folder).rglob("*.py")):
            roots |= used_names(parse(path))
    for name, entries in definitions.items():
        if any(decorator_names(node) & definitions.keys() for _, node in entries):
            roots.add(name)

    reached = set()
    pending = roots & definitions.keys()
    while pending:
        name = pending.pop()
        reached.add(name)
        for _, node in definitions[name]:
            pending |= (used_names(node) & definitions.keys()) - reached
    unreached = sorted(
        (path.relative_to(repo_root).as_posix(), node.lineno, name)
        for name, entries in definitions.items() if name not in reached
        for path, node in entries
    )
    return [f"{path}:{line} {name}" for path, line, name in unreached]


def test_every_name_is_reached_outside_its_tests():
    unreached = unreached_names()
    assert unreached == [], (
        "top-level names nothing in cli.py, a __main__.py, an import-time "
        "statement, benchmarks/ or examples/ reaches:\n" + "\n".join(unreached)
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
    return unreached_names(tmp_path / "src" / "pkg", tmp_path)


LEAF = "def helper():\n    return 1\n"
DEMO = "examples/demo.py"


def test_a_sibling_use_reaches_a_name(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        "src/pkg/user.py": "from .leaf import helper\n\ndef run():\n    return helper()\n",
        DEMO: "from pkg.user import run\nrun()\n",
    })
    assert unreached == []


def test_a_name_reached_only_from_an_unreached_name_is_unreached(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        "src/pkg/user.py": "from .leaf import helper\n\ndef run():\n    return helper()\n",
    })
    assert unreached == ["src/pkg/leaf.py:1 helper", "src/pkg/user.py:3 run"]


def test_a_private_helper_of_a_dead_name_is_flagged(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": (
            "def _hidden():\n    return 1\n\n"
            "def helper():\n    return _hidden()\n\n"
            "def live():\n    return 2\n"
        ),
        DEMO: "from pkg.leaf import live\nlive()\n",
    })
    assert unreached == ["src/pkg/leaf.py:1 _hidden", "src/pkg/leaf.py:4 helper"]


def test_an_attribute_use_reaches_a_name(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        DEMO: "import pkg.leaf\npkg.leaf.helper()\n",
    })
    assert unreached == []


def test_a_constant_read_only_by_a_dead_name_is_flagged(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": "LIMIT = 3\n\ndef capped(n):\n    return min(n, LIMIT)\n",
    })
    assert unreached == ["src/pkg/leaf.py:1 LIMIT", "src/pkg/leaf.py:3 capped"]


def test_a_module_level_loop_is_a_root(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": (
            "class A:\n    pass\n\nclass B:\n    pass\n\n"
            "for _cls in (A, B):\n    _cls.tag = _cls.__name__\n"
        ),
    })
    assert unreached == []


def test_a_reached_class_reaches_what_its_methods_read(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF + "\nclass Box:\n    def value(self):\n        return helper()\n",
        DEMO: "from pkg.leaf import Box\nBox()\n",
    })
    assert unreached == []


def test_names_not_bindings_one_use_reaches_every_spelling(tmp_path):
    # The documented limit: a use cannot tell two modules' ``helper`` apart.
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        "src/pkg/other.py": LEAF,
        DEMO: "from pkg.leaf import helper\nhelper()\n",
    })
    assert unreached == []


def test_a_self_use_does_not_reach_a_name(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": "def countdown(n):\n    return countdown(n - 1) if n else 0\n",
    })
    assert unreached == ["src/pkg/leaf.py:1 countdown"]


def test_an_all_entry_is_not_a_use(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF + '\n__all__ = ["helper"]\n',
        "src/pkg/__init__.py": 'from .leaf import helper\n__all__ = ["helper"]\n',
    })
    assert unreached == ["src/pkg/leaf.py:1 helper"]


def test_an_init_reexport_is_not_a_use(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/__init__.py": "from .leaf import helper\n__all__ = [helper]\n",
        "src/pkg/leaf.py": LEAF,
    })
    assert unreached == ["src/pkg/leaf.py:1 helper"]


def test_an_import_line_is_not_a_use(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        "src/pkg/user.py": "from .leaf import helper\n\nVALUE = 2\n",
        DEMO: "from pkg.user import VALUE\nprint(VALUE)\n",
    })
    assert unreached == ["src/pkg/leaf.py:1 helper"]


def test_a_string_in_a_manifest_is_not_a_use(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        "src/pkg/manifest.py": 'ENTRIES = (("pkg/leaf.py", "helper"),)\n',
        DEMO: "from pkg.manifest import ENTRIES\nprint(ENTRIES)\n",
    })
    assert unreached == ["src/pkg/leaf.py:1 helper"]


def test_a_module_level_registration_call_is_a_use(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/registry.py": "HANDLERS = []\n\ndef register(fn):\n    HANDLERS.append(fn)\n",
        "src/pkg/leaf.py": "from .registry import register\n\n" + LEAF + "\nregister(helper)\n",
    })
    assert unreached == []


def test_a_package_decorator_registers_what_it_decorates(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/registry.py": (
            "RULES = []\n\n"
            "def rule(name):\n"
            "    def decorate(fn):\n        RULES.append(fn)\n        return fn\n"
            "    return decorate\n"
        ),
        "src/pkg/checks.py": (
            "from dataclasses import dataclass\n\nfrom .registry import rule\n\n"
            '@rule("style")\ndef check():\n    return []\n\n'
            "@dataclass\nclass Unused:\n    x: int = 0\n"
        ),
    })
    assert unreached == ["src/pkg/checks.py:10 Unused"]


@pytest.mark.parametrize("folder", ARTEFACT_FOLDERS)
def test_an_artefact_use_reaches_a_name(tmp_path, folder):
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
    assert unreached == ["src/pkg/leaf.py:1 helper"]


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS) + ["sub/__main__.py"])
def test_entry_points_are_roots(tmp_path, entry_point):
    unreached = scan(tmp_path, {
        "src/pkg/leaf.py": LEAF,
        f"src/pkg/{entry_point}": (
            "from pkg.leaf import helper\n\ndef main():\n    return helper()\n"
        ),
    })
    assert unreached == []
