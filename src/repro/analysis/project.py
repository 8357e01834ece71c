"""Parsed-source index the rules run against.

A :class:`Project` is the unit of one analyzer run: every ``.py`` file
under the requested paths, parsed once, with package-relative paths,
precomputed inline suppressions and a few shared AST conveniences
(import resolution, enclosing-symbol lookup, class indexing) so each
rule stays a focused traversal instead of reinventing scaffolding.

Paths are *package-relative*: ``.../src/repro/sensing/handler.py``
indexes as ``repro/sensing/handler.py`` (the chain of ``__init__.py``
parents), and a loose fixture file indexes relative to its scan root.
That keeps findings and baseline entries identical no matter which
directory the analyzer is invoked from.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .findings import Finding, PARSE_ERROR, collect_suppressions


@dataclasses.dataclass
class Module:
    """One parsed source file."""

    path: str  # package-relative posix path (stable across machines)
    abspath: pathlib.Path
    source: str
    tree: ast.Module
    suppressions: dict

    @property
    def lines(self) -> List[str]:
        return self.source.splitlines()


class Project:
    """Every module of one analyzer run, plus lookup indexes."""

    def __init__(self) -> None:
        self.modules: List[Module] = []
        self.parse_errors: List[Finding] = []
        self._by_path: Dict[str, Module] = {}

    # -- construction --------------------------------------------------
    def add(self, module: Module) -> None:
        self.modules.append(module)
        self._by_path[module.path] = module

    # -- lookups -------------------------------------------------------
    def module(self, path: str) -> Optional[Module]:
        """Exact package-relative path lookup."""
        return self._by_path.get(path)

    def module_by_suffix(self, suffix: str) -> Optional[Module]:
        """The unique module whose path ends with ``suffix`` (if any)."""
        matches = [m for m in self.modules if m.path.endswith(suffix)]
        return matches[0] if len(matches) == 1 else None

    def iter_classes(self) -> Iterator[Tuple[Module, ast.ClassDef]]:
        """Every class definition in the project (any nesting level)."""
        for module in self.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield module, node

    def find_class(self, name: str) -> Optional[Tuple[Module, ast.ClassDef]]:
        """The unique project class with this name, if exactly one exists."""
        matches = [
            (module, node)
            for module, node in self.iter_classes()
            if node.name == name
        ]
        return matches[0] if len(matches) == 1 else None

    def find_function(
        self, name: str
    ) -> Optional[Tuple[Module, ast.FunctionDef]]:
        """The unique project module-level function with this name."""
        matches = []
        for module in self.modules:
            for node in module.tree.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == name
                ):
                    matches.append((module, node))
        return matches[0] if len(matches) == 1 else None


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def package_relative(file_path: pathlib.Path, scan_root: pathlib.Path) -> str:
    """Stable identity of one source file (see module docstring)."""
    file_path = file_path.resolve()
    top = file_path.parent
    while (top / "__init__.py").exists() and top.parent != top:
        top = top.parent
    if (file_path.parent / "__init__.py").exists():
        return file_path.relative_to(top).as_posix()
    try:
        return file_path.relative_to(scan_root.resolve()).as_posix()
    except ValueError:
        return file_path.name


def load_project(paths: Sequence) -> Project:
    """Parse every ``.py`` file under the given files/directories."""
    project = Project()
    seen = set()
    for raw in paths:
        root = pathlib.Path(raw)
        if root.is_dir():
            files = sorted(root.rglob("*.py"))
            scan_root = root
        else:
            files = [root]
            scan_root = root.parent
        for file_path in files:
            resolved = file_path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            rel = package_relative(file_path, scan_root)
            try:
                source = file_path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(file_path))
            except (OSError, SyntaxError, ValueError) as exc:
                project.parse_errors.append(
                    Finding(
                        path=rel,
                        line=getattr(exc, "lineno", 1) or 1,
                        col=0,
                        code=PARSE_ERROR,
                        message=f"could not parse file: {exc}",
                    )
                )
                continue
            project.add(
                Module(
                    path=rel,
                    abspath=resolved,
                    source=source,
                    tree=tree,
                    suppressions=collect_suppressions(source),
                )
            )
    return project


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for every top-level-ish import.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as mk`` maps ``mk -> numpy.random.default_rng``.
    All imports in the file are collected (including ones inside
    functions) — for linting, a shadowed alias is not worth modeling.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


def resolve_dotted(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The dotted origin of a Name/Attribute chain, through the imports.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    when ``np`` aliases numpy; unknown bases resolve to ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def qualified_definitions(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.AST]]:
    """``(dotted symbol, node)`` for every class/function definition."""

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = f"{prefix}.{child.name}" if prefix else child.name
                yield name, child
                yield from visit(child, name)

    yield from visit(tree, "")


def enclosing_symbol(tree: ast.Module, line: int) -> str:
    """The innermost definition containing a line (for baseline keys)."""
    best = ""
    best_span = None
    for name, node in qualified_definitions(tree):
        start = node.lineno
        end = getattr(node, "end_lineno", start) or start
        if start <= line <= end:
            span = end - start
            if best_span is None or span <= best_span:
                best, best_span = name, span
    return best


def function_params(node) -> List[str]:
    """All positional/keyword parameter names of a function definition."""
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def walk_function_body(node) -> Iterator[ast.AST]:
    """Walk a function's own statements, skipping nested def/class bodies.

    Nested definitions get their own visit from rules that care; a
    helper closure with its own ``rng`` parameter must not inherit its
    parent's obligations.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


def init_attributes(class_node: ast.ClassDef) -> Dict[str, int]:
    """``self.X`` attributes assigned in ``__init__`` -> first line."""
    attrs: Dict[str, int] = {}
    for item in class_node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for node in walk_function_body(item):
                targets: List[ast.AST] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if (
                            isinstance(leaf, ast.Attribute)
                            and isinstance(leaf.value, ast.Name)
                            and leaf.value.id == "self"
                        ):
                            attrs.setdefault(leaf.attr, leaf.lineno)
    return attrs


def class_method(class_node: ast.ClassDef, name: str):
    """A method defined directly in the class body, if present."""
    for item in class_node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if item.name == name:
                return item
    return None


def string_tuple_assignment(
    class_node: ast.ClassDef, name: str
) -> Optional[Tuple[List[str], int]]:
    """A class-level ``NAME = ("a", "b")`` declaration, if present."""
    for item in class_node.body:
        value = None
        if isinstance(item, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == name for t in item.targets
            ):
                value = item.value
        elif isinstance(item, ast.AnnAssign):
            if isinstance(item.target, ast.Name) and item.target.id == name:
                value = item.value
        if value is None:
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            names = [
                e.value
                for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            if len(names) == len(value.elts):
                return names, item.lineno
        return None, item.lineno  # declared but not a plain string tuple
    return None
