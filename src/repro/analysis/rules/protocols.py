"""CRQ2xx — batch-protocol completeness.

The vectorised fast paths dispatch on *protocol* methods: mobility
kernels group by ``batch_key``.  Each protocol is
all-or-nothing — a class implementing half of one doesn't fail loudly,
it silently takes the slow path (or worse, groups incorrectly).  These
rules make partial implementations a lint error at the diff.

* ``CRQ201`` — a mobility model defines ``step_batch`` without
  ``batch_key`` (or the reverse): ``SensingWorld.advance`` groups
  sensors by ``batch_key`` before dispatching ``step_batch`` kernels, in
  both RNG modes, so each is meaningless without the other.  (Both are
  abstract on ``MobilityModel``; what the rule catches is a subclass that
  overrides one and inherits the other, whose inherited key need not name
  what its own kernel reads.)  The same code covers the
  protocol's third method: a ``skip_ahead`` states which rows *its own*
  kernel leaves on a straight line, so a class defining it without its
  own ``step_batch`` + ``batch_key`` is a finding (the world would ignore
  it), and so is a ``skip_ahead`` that takes an ``rng`` — the pre-pass
  is draw-free by contract, which is what keeps the shared stream's
  order independent of who gets skipped.  Placement is held to the same
  code: an ``initial_state_batch`` that takes an ``rng`` (a row is placed
  from its keyed block, never from a generator), and a ``MobilityModel``
  subclass that still defines the scalar ``initial_state``, which nothing
  calls since the world places whole groups.

CRQ203 is retired: the operator-lowering protocol it checked is gone, and
its number is not reused.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..findings import Finding
from ..project import Project, enclosing_symbol
from ..registry import rule

CODES = {
    "CRQ201": "step_batch, batch_key (and a draw-free skip_ahead) go together; "
    "placement is initial_state_batch over keyed blocks",
}


def _method_names(class_node: ast.ClassDef) -> Set[str]:
    return {
        item.name
        for item in class_node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _takes_rng(class_node: ast.ClassDef, method: str) -> bool:
    for item in class_node.body:
        if isinstance(item, ast.FunctionDef) and item.name == method:
            args = item.args
            return any(
                arg.arg == "rng"
                for arg in args.posonlyargs + args.args + args.kwonlyargs
            )
    return False


def _is_mobility_model(project: Project, class_node: ast.ClassDef, seen: Set[str]) -> bool:
    """Whether ``class_node`` derives from ``MobilityModel``, following base names."""
    for base in _base_names(class_node) - seen:
        seen.add(base)
        if base == "MobilityModel":
            return True
        found = project.find_class(base)
        if found is not None and _is_mobility_model(project, found[1], seen):
            return True
    return False


def _base_names(class_node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in class_node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


@rule("batch-protocol completeness", CODES)
def check(project: Project, context) -> Iterator[Finding]:
    for module, class_node in project.iter_classes():
        methods = _method_names(class_node)
        symbol = enclosing_symbol(module.tree, class_node.lineno) or class_node.name

        def finding(code: str, message: str) -> Finding:
            return Finding(
                path=module.path,
                line=class_node.lineno,
                col=class_node.col_offset,
                code=code,
                message=message,
                symbol=symbol,
            )

        # CRQ201 — mobility batch kernels pair with their grouping key.
        has_step_batch = "step_batch" in methods
        has_batch_key = "batch_key" in methods
        if has_step_batch != has_batch_key:
            present, missing = (
                ("step_batch", "batch_key")
                if has_step_batch
                else ("batch_key", "step_batch")
            )
            yield finding(
                "CRQ201",
                f"class {class_node.name} defines {present} without "
                f"{missing}; advance groups kernels by batch_key in both "
                "modes before dispatching step_batch",
            )

        if "skip_ahead" in methods:
            if not (has_step_batch and has_batch_key):
                yield finding(
                    "CRQ201",
                    f"class {class_node.name} defines skip_ahead without its "
                    "own step_batch and batch_key; the world honours a "
                    "skip_ahead only beside the kernel it describes",
                )
            if _takes_rng(class_node, "skip_ahead"):
                yield finding(
                    "CRQ201",
                    f"{class_node.name}.skip_ahead takes an rng; the "
                    "pre-pass must not draw, or the shared stream's order "
                    "would depend on which rows are skipped",
                )

        if _takes_rng(class_node, "initial_state_batch"):
            yield finding(
                "CRQ201",
                f"{class_node.name}.initial_state_batch takes an rng; a row "
                "is placed from its keyed placement block, never a generator",
            )
        if "initial_state" in methods and _is_mobility_model(project, class_node, set()):
            yield finding(
                "CRQ201",
                f"mobility model {class_node.name} defines the scalar "
                "initial_state; the world places whole groups through "
                "initial_state_batch, so it is never called",
            )

