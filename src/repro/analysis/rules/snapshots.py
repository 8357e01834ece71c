"""CRQ3xx — snapshot/recovery state coverage (the PR 7 contract).

Checkpoints capture the engine *whole-object* precisely so new fields
are pickled by default.  The two ways a field escapes that default are
therefore the two things to police statically:

1. a class's ``__getstate__`` deliberately excludes a key (nulls it in
   the state dict) — then something must provably rebuild it, and
2. a class is serialized through a ``dispatch_table`` reducer that
   enumerates fields by hand — then a new ``__init__`` field silently
   vanishes from snapshots unless the reducer learns about it.

* ``CRQ301`` — a custom ``__getstate__`` does not start from
  ``self.__dict__``: coverage becomes unverifiable, and fields added by
  a future PR are silently dropped rather than captured by default.
* ``CRQ302`` — a key excluded in ``__getstate__`` (overwritten with a
  constant, ``del``-ed or ``pop``-ed) is neither reassigned in
  ``__setstate__`` nor declared in the class's ``_DERIVED_STATE``
  tuple.  The declaration is the reviewable record that restore (or
  lazy rebuild) covers the field.
* ``CRQ303`` — a ``_DERIVED_STATE`` entry that ``__getstate__`` no
  longer excludes: stale declarations hide real exclusions.
* ``CRQ304`` — a ``dispatch_table`` reducer reads a hand-picked set of
  attributes that no longer covers everything the class's ``__init__``
  assigns (reducers reading ``__dict__`` wholesale are always covered).
* ``CRQ305`` — a ``dispatch_table`` reducer returns a rebuilder (the
  class or function pickle will call on load) that is not on the
  snapshot loader's ``_ADMITTED`` allow-list, or that cannot be resolved
  statically (it must be defined at module level beside the reducer).
  Such a checkpoint is written fine and refused on every restore; this
  finds it at the diff instead of in a test.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..findings import Finding
from ..project import (
    Module,
    Project,
    class_method,
    enclosing_symbol,
    init_attributes,
    string_tuple_assignment,
    walk_function_body,
)
from ..registry import rule

CODES = {
    "CRQ301": "__getstate__ not derived from self.__dict__ (opaque coverage)",
    "CRQ302": "key excluded in __getstate__ but not rebuilt or declared derived",
    "CRQ303": "_DERIVED_STATE entry no longer excluded in __getstate__",
    "CRQ304": "dispatch_table reducer misses attributes assigned in __init__",
    "CRQ305": "dispatch_table reducer rebuilds through a global not on _ADMITTED",
}

#: Class attribute declaring excluded-and-rebuilt (derived) state keys.
DERIVED_DECLARATION = "_DERIVED_STATE"

#: Module-level set of ``(module, name)`` globals the snapshot loader admits
#: besides engine classes (``repro.recovery.snapshot``).
ALLOW_LIST = "_ADMITTED"


def _is_constant_like(node: ast.AST) -> bool:
    """Literals that carry no captured state (None, [], {}, (), 0, "")."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return not node.elts
    if isinstance(node, ast.Dict):
        return not node.keys
    return False


def _reads_self_dict(func: ast.FunctionDef) -> bool:
    for node in walk_function_body(func):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__dict__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return True
    return False


def _excluded_keys(func: ast.FunctionDef) -> Dict[str, int]:
    """State-dict keys the method excludes -> line of the exclusion."""
    excluded: Dict[str, int] = {}

    def key_of(sub: ast.AST) -> Optional[str]:
        if (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.slice, ast.Constant)
            and isinstance(sub.slice.value, str)
        ):
            return sub.slice.value
        return None

    for node in walk_function_body(func):
        if isinstance(node, ast.Assign) and _is_constant_like(node.value):
            for target in node.targets:
                key = key_of(target)
                if key is not None:
                    excluded.setdefault(key, node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                key = key_of(target)
                if key is not None:
                    excluded.setdefault(key, node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            excluded.setdefault(node.args[0].value, node.lineno)
    return excluded


def _setstate_assigned(func) -> Set[str]:
    """``self.X`` attributes a ``__setstate__`` rebuilds explicitly."""
    assigned: Set[str] = set()
    if func is None:
        return assigned
    for node in walk_function_body(func):
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
                    assigned.add(leaf.attr)
    return assigned


def _check_getstate_classes(project: Project) -> Iterator[Finding]:
    for module, class_node in project.iter_classes():
        getstate = class_method(class_node, "__getstate__")
        if getstate is None:
            continue
        symbol = (
            enclosing_symbol(module.tree, class_node.lineno) or class_node.name
        )

        if not _reads_self_dict(getstate):
            yield Finding(
                path=module.path,
                line=getstate.lineno,
                col=getstate.col_offset,
                code="CRQ301",
                message=(
                    f"{class_node.name}.__getstate__ does not start from "
                    "self.__dict__; fields added later will be silently "
                    "dropped from checkpoints instead of captured by default"
                ),
                symbol=symbol,
            )
            continue

        excluded = _excluded_keys(getstate)
        declared = string_tuple_assignment(class_node, DERIVED_DECLARATION)
        declared_names: List[str] = []
        declared_line = class_node.lineno
        if declared is not None:
            names, declared_line = declared
            declared_names = names or []
        rebuilt = _setstate_assigned(class_method(class_node, "__setstate__"))

        for key, line in sorted(excluded.items(), key=lambda kv: kv[1]):
            if key in declared_names or key in rebuilt:
                continue
            yield Finding(
                path=module.path,
                line=line,
                col=0,
                code="CRQ302",
                message=(
                    f"{class_node.name}.__getstate__ excludes {key!r} but "
                    "nothing rebuilds it: reassign it in __setstate__ or "
                    f"declare it in {DERIVED_DECLARATION}"
                ),
                symbol=symbol,
            )
        for name in declared_names:
            if name not in excluded:
                yield Finding(
                    path=module.path,
                    line=declared_line,
                    col=0,
                    code="CRQ303",
                    message=(
                        f"{class_node.name}.{DERIVED_DECLARATION} lists "
                        f"{name!r} but __getstate__ no longer excludes it; "
                        "remove the stale declaration"
                    ),
                    symbol=symbol,
                )


def _dispatch_entries(module: Module) -> Iterator[Tuple[ast.expr, str, int]]:
    """``dispatch_table[key] = reducer`` assignments -> (key node, reducer, line)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, (ast.Name, ast.Attribute))
        ):
            continue
        base = target.value
        base_name = base.id if isinstance(base, ast.Name) else base.attr
        if base_name != "dispatch_table":
            continue
        if not isinstance(node.value, ast.Name):
            continue
        yield target.slice, node.value.id, node.lineno


def _reducer_reads(func) -> Tuple[bool, Set[str]]:
    """(reads __dict__ wholesale, attributes read off the parameter)."""
    params = [a.arg for a in func.args.args]
    if not params:
        return False, set()
    param = params[0]
    reads: Set[str] = set()
    wholesale = False
    for node in walk_function_body(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
        ):
            if node.attr == "__dict__":
                wholesale = True
            else:
                reads.add(node.attr)
    return wholesale, reads


def _module_aliases(module: Module) -> Dict[str, str]:
    """Module-level ``name = other_name`` aliases (one hop)."""
    aliases: Dict[str, str] = {}
    for item in module.tree.body:
        if (
            isinstance(item, ast.Assign)
            and len(item.targets) == 1
            and isinstance(item.targets[0], ast.Name)
            and isinstance(item.value, ast.Name)
        ):
            aliases[item.targets[0].id] = item.value.id
    return aliases


def _find_reducer(
    project: Project, module: Module, reducer_name: str
) -> Optional[Tuple[Module, ast.FunctionDef]]:
    """The reducer a ``dispatch_table`` entry names, through module aliases."""
    aliases = _module_aliases(module)
    seen = set()
    while reducer_name in aliases and reducer_name not in seen:
        seen.add(reducer_name)
        reducer_name = aliases[reducer_name]
    for item in module.tree.body:
        if isinstance(item, ast.FunctionDef) and item.name == reducer_name:
            return module, item
    return project.find_function(reducer_name)


def _check_dispatch_tables(project: Project) -> Iterator[Finding]:
    for module in project.modules:
        for key, reducer_name, line in _dispatch_entries(module):
            if not isinstance(key, ast.Name):
                continue  # e.g. np.random.Generator: not a project class
            located = project.find_class(key.id)
            if located is None:
                continue  # class outside the analyzed tree
            class_node = located[1]
            found = _find_reducer(project, module, reducer_name)
            if found is None:
                continue  # alias of an alias: out of static reach
            wholesale, reads = _reducer_reads(found[1])
            if wholesale:
                continue
            missing = sorted(
                set(init_attributes(class_node)) - reads
            )
            if missing:
                yield Finding(
                    path=module.path,
                    line=line,
                    col=0,
                    code="CRQ304",
                    message=(
                        f"dispatch_table reducer {reducer_name} for "
                        f"{key.id} never reads __init__-assigned "
                        f"attribute(s) {', '.join(missing)}; snapshots "
                        "would drop them"
                    ),
                    symbol=enclosing_symbol(module.tree, line),
                )


def _module_name(module: Module) -> str:
    """Dotted module name of a package-relative path."""
    name = module.path[: -len(".py")].replace("/", ".")
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


def _allow_list(project: Project) -> Optional[Set[Tuple[str, str]]]:
    """The ``(module, name)`` pairs of the one module-level ``_ADMITTED``.

    ``None`` when no module (or more than one) defines it.  An entry's
    module may be spelled ``__name__``: the defining module.
    """
    found = [
        (module, item.value)
        for module in project.modules
        for item in module.tree.body
        if isinstance(item, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == ALLOW_LIST for t in item.targets)
        and isinstance(item.value, (ast.Set, ast.List, ast.Tuple))
    ]
    if len(found) != 1:
        return None
    module, value = found[0]
    admitted: Set[Tuple[str, str]] = set()
    for element in value.elts:
        if not (isinstance(element, ast.Tuple) and len(element.elts) == 2):
            continue
        where, name = element.elts
        if isinstance(where, ast.Name) and where.id == "__name__":
            where_name = _module_name(module)
        elif isinstance(where, ast.Constant) and isinstance(where.value, str):
            where_name = where.value
        else:
            continue
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            admitted.add((where_name, name.value))
    return admitted


def _rebuilder(module: Module, node: ast.Return) -> Optional[Tuple[str, str]]:
    """``(module, name)`` of the rebuilder a reducer's ``return`` names.

    Resolvable when the return is ``(rebuilder, args...)`` and ``rebuilder``
    is a module-level function or class beside the reducer; else ``None``.
    """
    if not (isinstance(node.value, ast.Tuple) and node.value.elts):
        return None
    head = node.value.elts[0]
    if not isinstance(head, ast.Name):
        return None
    for item in module.tree.body:
        if (
            isinstance(item, (ast.FunctionDef, ast.ClassDef))
            and item.name == head.id
        ):
            return _module_name(module), head.id
    return None


def _check_admitted_rebuilders(project: Project) -> Iterator[Finding]:
    admitted = _allow_list(project)
    if admitted is None:
        return
    for module in project.modules:
        for _, reducer_name, line in _dispatch_entries(module):
            found = _find_reducer(project, module, reducer_name)
            returns = []
            if found is not None:
                returns = [
                    _rebuilder(found[0], node)
                    for node in walk_function_body(found[1])
                    if isinstance(node, ast.Return) and node.value is not None
                ]
            if not returns:
                returns = [None]
            for rebuilt in returns:
                if rebuilt in admitted:
                    continue
                if rebuilt is None:
                    message = (
                        f"dispatch_table reducer {reducer_name} returns a "
                        "rebuilder craqr-lint cannot resolve; return "
                        "(rebuilder, args) with the rebuilder defined beside "
                        f"it and listed on {ALLOW_LIST}"
                    )
                else:
                    message = (
                        f"dispatch_table reducer {reducer_name} rebuilds "
                        f"through {rebuilt[0]}.{rebuilt[1]}, which is not on "
                        f"{ALLOW_LIST}: the snapshot loader would refuse every "
                        "checkpoint holding it"
                    )
                yield Finding(
                    path=module.path,
                    line=line,
                    col=0,
                    code="CRQ305",
                    message=message,
                    symbol=enclosing_symbol(module.tree, line),
                )


@rule("snapshot state coverage", CODES)
def check(project: Project, context) -> Iterator[Finding]:
    yield from _check_getstate_classes(project)
    yield from _check_dispatch_tables(project)
    yield from _check_admitted_rebuilders(project)
