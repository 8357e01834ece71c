"""Tier-1 guard: every top-level name and every class member of the package
is reached by something, and no private state is written without a reader.

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
private — is reached when a root or reached code reads it, as an
``ast.Name`` or as the attribute of an ``ast.Attribute``.  A reached class
reaches only its shell: its bases, keywords, decorators, the statements of
its body that are no ``def`` and its dunder methods.  Every other ``def`` or
``async def`` directly in a class body (a method, a property, a
``classmethod`` or ``staticmethod``) is a *member*, reached when its class
is reached and reached code either reads the member's name or calls
``getattr(x, f"<prefix>{...}")`` with a prefix the name starts with (the
server's ``getattr(self, f"_op_{op}")`` dispatch).  What a definition or a
member reads counts only once it is reached itself; names and members share
one fixpoint.  Import lines, ``__all__`` entries and string constants (such
as the ``repro.analysis.hotpaths`` manifest) are not uses, and neither are
the tests: code that only its own tests reach should be deleted with those
tests.

``KEPT_FOR_TESTS`` names the members that stay although only tests reach
them — the per-object references tests compare a kernel with, and seams that
arm test-only machinery — each with its reason.  An entry that is reached,
or that names no member, fails the guard, as a stale baseline entry would.

Private state has a rule of its own: an attribute a reached class stores as
``self._x`` must be loaded as ``._x`` somewhere in the package, or named by
one of its string constants (``__slots__``, ``getattr(obj, "_x")``);
otherwise it is written and never read.

The closure matches names, not bindings: a name read anywhere in reached
code reaches every top-level definition and every member of that spelling,
so an unrelated identifier (a method or a local of the same spelling) can
keep a name alive.
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

#: The per-tuple operator walk: the reference the compiled attribute
#: programs are checked against (tests/core/test_chain_differential.py and
#: the planner, fabricator and topology tests drive it).  A kept member is
#: no root, so each step the walk takes is listed.
_WALK = "the per-tuple reference walk the compiled programs are checked against"

KEPT_FOR_TESTS = {
    "StreamFabricator.process_batch": _WALK + ": its entry point",
    "StreamFabricator.map_tuples": _WALK + ": its map phase",
    "Grid.locate": _WALK + ": the map phase's per-tuple cell lookup",
    "QueryPlanner.route_cell_batch": _WALK + ": one cell's tuples into its topology",
    "CellTopology.inject_many": _WALK + ": a cell's raw tuples into its stream topology",
    "StreamTopology.inject_many": _WALK + ": tuples into the topology's entry stream",
    "QueryPlanner.flush_all": _WALK + ": the end of a batch, every Flatten's flush",
    "MobileSensor.move": (
        "per-object oracle of the strict movement kernel (tests/sensing)"
    ),
    "MobileSensor.handle_request": (
        "per-object oracle of the strict keyed answers (tests/sensing)"
    ),
    "CraqrEngine.arm_crash": "the crash matrix's seam into run_batch's barriers",
    "OnlineIntensityEstimator.observe_batch_fused": (
        "the e2e tracer's pointprocess.estimate binding (benchmarks/e2e/tracer.py "
        "SPANS, patched by name) and the one-segment SGD the kernel tests compare"
    ),
    "FlattenOperator.process_batch_mask": (
        "the e2e tracer's core.pmat.flatten binding (benchmarks/e2e/tracer.py "
        "SPANS, patched by name) and the one-batch Eq. (3) the operator tests "
        "compare with flush"
    ),
}


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


def is_member(node: ast.stmt) -> bool:
    """A ``def`` directly in a class body that is no dunder method."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def shell(node: ast.stmt) -> list:
    """What reaching ``node`` reaches: a class without its members, else itself."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    body = [stmt for stmt in node.body if not is_member(stmt)]
    return [*node.bases, *node.keywords, *node.decorator_list, *body]


def used_names(node: ast.AST) -> set:
    """Identifiers ``node`` reads or looks up as attributes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def getattr_prefixes(node: ast.AST) -> set:
    """The literal heads of ``getattr(x, f"<prefix>{...}")`` calls in ``node``."""
    prefixes = set()
    for sub in ast.walk(node):
        if not (
            isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id == "getattr" and len(sub.args) >= 2
            and isinstance(sub.args[1], ast.JoinedStr) and sub.args[1].values
        ):
            continue
        head = sub.args[1].values[0]
        if isinstance(head, ast.Constant) and head.value:
            prefixes.add(head.value)
    return prefixes


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


def is_private_store(node: ast.AST) -> bool:
    """``self._x = ...`` (or ``+=``): a store of private state, dunders aside."""
    return (
        isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr.startswith("_") and not node.attr.endswith("__")
    )


def findings(
    package: pathlib.Path = PACKAGE,
    repo_root: pathlib.Path = REPO_ROOT,
    kept: dict = KEPT_FOR_TESTS,
) -> list:
    """What the guard reports, sorted: ``"path:line name"`` of every top-level
    name and ``"path:line Class.member"`` of every member the closure does
    not reach (``kept`` members aside), a ``kept`` entry that is reached or
    names no member, and ``"path:line Class._x written, never read"``."""
    definitions = {}  # name -> [(path, node)]
    members = []  # (path, class node, member node)
    roots = set()  # names the roots read
    prefixes = set()  # getattr prefixes the roots use
    loaded = set()  # attributes the package loads and strings it spells
    for path in sorted(package.rglob("*.py")):
        tree = parse(path)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                loaded.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                loaded.add(sub.value)
        for node in tree.body:
            if is_skipped(node):
                continue
            names = defined_names(node)
            if path.name in ENTRY_POINTS or not names:
                roots |= used_names(node)
                prefixes |= getattr_prefixes(node)
                continue
            for name in names:
                definitions.setdefault(name, []).append((path, node))
            if isinstance(node, ast.ClassDef):
                members += [(path, node, stmt) for stmt in node.body if is_member(stmt)]
    for folder in ARTEFACT_FOLDERS:
        for path in sorted((repo_root / folder).rglob("*.py")):
            tree = parse(path)
            roots |= used_names(tree)
            prefixes |= getattr_prefixes(tree)
    for name, entries in definitions.items():
        if any(decorator_names(node) & definitions.keys() for _, node in entries):
            roots.add(name)

    used, reached, reached_members = set(roots), set(), set()

    def reach(parts: list) -> None:
        for part in parts:
            used.update(used_names(part))
            prefixes.update(getattr_prefixes(part))

    changed = True
    while changed:
        changed = False
        for name in (used & definitions.keys()) - reached:
            reached.add(name)
            changed = True
            for _, node in definitions[name]:
                reach(shell(node))
        for index, (_, cls, member) in enumerate(members):
            if index in reached_members or cls.name not in reached:
                continue
            if member.name in used or any(member.name.startswith(p) for p in prefixes):
                reached_members.add(index)
                changed = True
                reach([member])

    found = [
        (path, node.lineno, name)
        for name, entries in definitions.items() if name not in reached
        for path, node in entries
    ]
    member_names = set()
    for index, (path, cls, member) in enumerate(members):
        name = f"{cls.name}.{member.name}"
        member_names.add(name)
        if index not in reached_members and cls.name in reached and name not in kept:
            found.append((path, member.lineno, name))
        elif index in reached_members and name in kept:
            found.append((path, member.lineno, f"{name} is reached: drop it from KEPT_FOR_TESTS"))
    for name in sorted(kept.keys() - member_names):
        found.append((package, 0, f"KEPT_FOR_TESTS names no member {name}"))
    for name, entries in definitions.items():
        for path, node in entries:
            if name not in reached or not isinstance(node, ast.ClassDef):
                continue
            stored = {}
            for sub in ast.walk(node):
                if is_private_store(sub) and sub.attr not in loaded:
                    stored.setdefault(sub.attr, sub.lineno)
            found += [
                (path, line, f"{name}.{attr} written, never read")
                for attr, line in stored.items()
            ]
    return [
        f"{path.relative_to(repo_root).as_posix()}:{line} {name}"
        for path, line, name in sorted(found, key=lambda e: (e[0].as_posix(), e[1], e[2]))
    ]


def test_every_name_is_reached_outside_its_tests():
    found = findings()
    assert found == [], (
        "top-level names and class members nothing in cli.py, a __main__.py, "
        "an import-time statement, benchmarks/ or examples/ reaches, stale "
        "KEPT_FOR_TESTS entries and private state nothing reads:\n"
        + "\n".join(found)
    )


# ----------------------------------------------------------------------
# The guard's own rules, on a throw-away repository
# ----------------------------------------------------------------------
def scan(tmp_path, files: dict, kept: dict = None) -> list:
    """Write ``files`` (path relative to the repo root -> source) and scan them."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return findings(tmp_path / "src" / "pkg", tmp_path, kept or {})


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
        DEMO: "from pkg.leaf import Box\nBox().value()\n",
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


# ----------------------------------------------------------------------
# Members, KEPT_FOR_TESTS and private state
# ----------------------------------------------------------------------
BOX = (
    "class Box:\n"
    "    def __init__(self):\n        self.size = 1\n\n"
    "    def value(self):\n        return self.size\n\n"
    "    @property\n    def spare(self):\n        return 2\n"
)


def test_a_read_reaches_a_member_and_an_unread_member_is_flagged(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": BOX,
        DEMO: "from pkg.box import Box\nBox().value()\n",
    })
    assert unreached == ["src/pkg/box.py:9 Box.spare"]


def test_the_members_of_an_unreached_class_are_not_listed_one_by_one(tmp_path):
    unreached = scan(tmp_path, {"src/pkg/box.py": BOX})
    assert unreached == ["src/pkg/box.py:1 Box"]


def test_a_member_read_only_by_an_unreached_member_is_flagged(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "class Box:\n"
            "    def live(self):\n        return 1\n\n"
            "    def dead(self):\n        return self.helper()\n\n"
            "    def helper(self):\n        return 2\n"
        ),
        DEMO: "from pkg.box import Box\nBox().live()\n",
    })
    assert unreached == ["src/pkg/box.py:5 Box.dead", "src/pkg/box.py:8 Box.helper"]


def test_what_a_reached_member_reads_is_reached(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "from .leaf import helper\n\n"
            "class Box:\n"
            "    def live(self):\n        return self._inner() + helper()\n\n"
            "    def _inner(self):\n        return 2\n"
        ),
        "src/pkg/leaf.py": LEAF,
        DEMO: "from pkg.box import Box\nBox().live()\n",
    })
    assert unreached == []


def test_a_dunder_is_never_flagged(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "class Box:\n"
            "    def __len__(self):\n        return 0\n\n"
            "    def __repr__(self):\n        return 'Box()'\n"
        ),
        DEMO: "from pkg.box import Box\nBox()\n",
    })
    assert unreached == []


def test_a_getattr_prefix_dispatch_reaches_every_member_it_can_name(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/server.py": (
            "class Server:\n"
            "    def dispatch(self, op):\n"
            '        return getattr(self, f"_op_{op}")()\n\n'
            "    def _op_run(self):\n        return 1\n\n"
            "    def _op_fetch(self):\n        return 2\n\n"
            "    def _other(self):\n        return 3\n"
        ),
        DEMO: "from pkg.server import Server\nServer().dispatch('run')\n",
    })
    assert unreached == ["src/pkg/server.py:11 Server._other"]


def test_a_kept_member_is_not_flagged(tmp_path):
    unreached = scan(
        tmp_path,
        {"src/pkg/box.py": BOX, DEMO: "from pkg.box import Box\nBox().value()\n"},
        kept={"Box.spare": "a reference tests compare with"},
    )
    assert unreached == []


def test_a_reached_kept_entry_fails(tmp_path):
    unreached = scan(
        tmp_path,
        {"src/pkg/box.py": BOX, DEMO: "from pkg.box import Box\nBox().value()\n"},
        kept={"Box.spare": "a reference", "Box.value": "no longer only for tests"},
    )
    assert unreached == [
        "src/pkg/box.py:5 Box.value is reached: drop it from KEPT_FOR_TESTS"
    ]


def test_a_kept_entry_naming_no_member_fails(tmp_path):
    unreached = scan(
        tmp_path,
        {"src/pkg/box.py": BOX, DEMO: "from pkg.box import Box\nBox().value().spare\n"},
        kept={"Box.gone": "deleted since"},
    )
    assert unreached == ["src/pkg:0 KEPT_FOR_TESTS names no member Box.gone"]


def test_the_kept_entries_are_exactly_the_declared_references_and_seams():
    assert sorted(KEPT_FOR_TESTS) == [
        "CellTopology.inject_many", "CraqrEngine.arm_crash",
        "FlattenOperator.process_batch_mask", "Grid.locate",
        "MobileSensor.handle_request", "MobileSensor.move",
        "OnlineIntensityEstimator.observe_batch_fused",
        "QueryPlanner.flush_all", "QueryPlanner.route_cell_batch",
        "StreamFabricator.map_tuples", "StreamFabricator.process_batch",
        "StreamTopology.inject_many",
    ]


COUNTER = (
    "class Counter:\n"
    "    def __init__(self):\n        self._seen = 0\n        self._kept = 0\n\n"
    "    def add(self, keep):\n"
    "        self._seen += 1\n        self._kept += keep\n        return self._kept\n"
)


def test_a_write_only_private_attribute_is_flagged_and_a_loaded_one_is_not(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/counter.py": COUNTER,
        DEMO: "from pkg.counter import Counter\nCounter().add(1)\n",
    })
    assert unreached == ["src/pkg/counter.py:3 Counter._seen written, never read"]


def test_a_private_attribute_named_by_a_string_is_read(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/counter.py": COUNTER,
        "src/pkg/probe.py": 'def seen(counter):\n    return getattr(counter, "_seen")\n',
        DEMO: (
            "from pkg.counter import Counter\nfrom pkg.probe import seen\n"
            "seen(Counter()) + Counter().add(1)\n"
        ),
    })
    assert unreached == []


def test_the_private_state_of_an_unreached_class_is_not_checked(tmp_path):
    unreached = scan(tmp_path, {"src/pkg/counter.py": COUNTER})
    assert unreached == ["src/pkg/counter.py:1 Counter"]


def test_a_property_setter_is_reached_with_its_getter(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "class Box:\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    @size.setter\n    def size(self, value):\n        pass\n"
        ),
        DEMO: "from pkg.box import Box\nBox().size = 2\n",
    })
    assert unreached == []


def test_classmethods_staticmethods_and_async_defs_are_members(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "class Box:\n"
            "    @classmethod\n    def build(cls):\n        return cls()\n\n"
            "    @staticmethod\n    def unit():\n        return 1\n\n"
            "    async def serve(self):\n        return 2\n"
        ),
        DEMO: "from pkg.box import Box\nBox.build()\n",
    })
    assert unreached == ["src/pkg/box.py:7 Box.unit", "src/pkg/box.py:10 Box.serve"]


def test_a_class_body_statement_is_part_of_the_shell(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "from .leaf import helper\n\n"
            "class Box:\n    DEFAULT = helper()\n\n"
            "    class Options:\n        def unread(self):\n            return 1\n"
        ),
        "src/pkg/leaf.py": LEAF,
        DEMO: "from pkg.box import Box\nBox()\n",
    })
    assert unreached == []


def test_a_subclass_reaches_its_base_but_not_the_bases_unread_members(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "class Base:\n    def shared(self):\n        return 1\n\n"
            "    def unread(self):\n        return 2\n\n"
            "class Box(Base):\n    pass\n"
        ),
        DEMO: "from pkg.box import Box\nBox().shared()\n",
    })
    assert unreached == ["src/pkg/box.py:5 Base.unread"]


def test_a_dunder_reaches_what_it_reads(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "class Box:\n"
            "    def __init__(self):\n        self.size = self._measure()\n\n"
            "    def _measure(self):\n        return 1\n"
        ),
        DEMO: "from pkg.box import Box\nBox()\n",
    })
    assert unreached == []


def test_a_members_decorator_counts_only_once_the_member_is_reached(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "from .leaf import helper\n\n"
            "class Box:\n    @helper\n    def unread(self):\n        return 1\n"
        ),
        "src/pkg/leaf.py": LEAF,
        DEMO: "from pkg.box import Box\nBox()\n",
    })
    assert unreached == ["src/pkg/box.py:5 Box.unread", "src/pkg/leaf.py:1 helper"]


def test_an_entry_point_read_reaches_a_member(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": BOX,
        "src/pkg/cli.py": "from pkg.box import Box\n\ndef main():\n    return Box().spare\n",
    })
    assert unreached == ["src/pkg/box.py:5 Box.value"]


def test_names_not_bindings_a_read_on_another_object_reaches_a_member(tmp_path):
    # The documented limit: ``other.value`` reaches ``Box.value`` too.
    unreached = scan(tmp_path, {
        "src/pkg/box.py": BOX,
        DEMO: "from pkg.box import Box\nBox()\nimport os\nos.value = 1\nos.spare\n",
    })
    assert unreached == []


def test_a_getattr_with_a_constant_name_does_not_reach_a_member(tmp_path):
    # Only an f-string head is a prefix; a plain string is a constant, not a use.
    unreached = scan(tmp_path, {
        "src/pkg/box.py": BOX,
        DEMO: 'from pkg.box import Box\ngetattr(Box(), "value")\nBox().spare\n',
    })
    assert unreached == ["src/pkg/box.py:5 Box.value"]


def test_a_getattr_prefix_in_an_artefact_reaches_members(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": BOX,
        DEMO: 'from pkg.box import Box\nfor name in ("value", "spare"):\n    getattr(Box(), f"{name}")\n'
        'getattr(Box(), f"va{1}")\ngetattr(Box(), f"spa{1}")\n',
    })
    assert unreached == []


def test_a_private_attribute_listed_in_slots_is_read(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/counter.py": (
            "class Counter:\n    __slots__ = ('_seen',)\n\n"
            "    def __init__(self):\n        self._seen = 0\n"
        ),
        DEMO: "from pkg.counter import Counter\nCounter()\n",
    })
    assert unreached == []


def test_a_load_anywhere_in_the_package_reads_a_private_attribute(tmp_path):
    # Names, not bindings: another class loading ``._seen`` keeps it.
    unreached = scan(tmp_path, {
        "src/pkg/counter.py": COUNTER,
        "src/pkg/other.py": "def peek(thing):\n    return thing._seen\n",
        DEMO: (
            "from pkg.counter import Counter\nfrom pkg.other import peek\n"
            "peek(Counter())\nCounter().add(1)\n"
        ),
    })
    assert unreached == []


def test_only_stores_through_self_are_private_state(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/counter.py": (
            "class Counter:\n"
            "    def tag(self, other):\n        other._mark = 1\n        self.__dict__['x'] = 2\n"
        ),
        DEMO: "from pkg.counter import Counter\nCounter().tag(Counter())\n",
    })
    assert unreached == []


def test_a_dunder_attribute_is_not_private_state(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/counter.py": (
            "class Counter:\n    def __init__(self):\n        self.__wrapped__ = None\n"
        ),
        DEMO: "from pkg.counter import Counter\nCounter()\n",
    })
    assert unreached == []


def test_a_kept_member_reaches_nothing(tmp_path):
    # KEPT_FOR_TESTS silences an entry; it is no root, so what it reads
    # stays unreached unless reached code reads it too.
    unreached = scan(
        tmp_path,
        {
            "src/pkg/box.py": (
                "class Box:\n"
                "    def oracle(self):\n        return self._reference()\n\n"
                "    def _reference(self):\n        return 1\n"
            ),
            DEMO: "from pkg.box import Box\nBox()\n",
        },
        kept={"Box.oracle": "a reference tests compare with"},
    )
    assert unreached == ["src/pkg/box.py:5 Box._reference"]


def test_a_class_only_an_unreached_member_uses_is_flagged(tmp_path):
    unreached = scan(tmp_path, {
        "src/pkg/box.py": (
            "class State:\n    pass\n\n"
            "class Box:\n"
            "    def live(self):\n        return 1\n\n"
            "    def state_at(self):\n        return State()\n"
        ),
        DEMO: "from pkg.box import Box\nBox().live()\n",
    })
    assert unreached == ["src/pkg/box.py:1 State", "src/pkg/box.py:8 Box.state_at"]
