"""CRQ4xx — hot-path purity.

The functions in the :mod:`repro.analysis.hotpaths` manifest are the
per-batch inner loops the benchmark suite gates.  Their speed rests on
staying columnar: one numpy kernel over whole columns, never a Python
statement per row.  The classic regressions are all visible in the AST:

* ``CRQ401`` — ``.tolist()`` materialises a column as Python objects;
  N boxed floats and a list allocation per batch.
* ``CRQ402`` — ``for ... in range(len(...))`` / ``for ... in zip(...)``
  is the per-row iteration idiom; vectorise or hoist it.
* ``CRQ403`` — constructing objects (a CapWords call) inside a loop
  allocates per iteration; build once outside, or build columns.
* ``CRQ404`` — a manifest entry that resolves to nothing: the hot
  function moved or was renamed, and its protection silently lapsed.
* ``CRQ405`` — ``np.hypot`` / ``math.hypot`` is a libm call per element,
  ≈7× the cost of the IEEE spelling ``sqrt(dx*dx + dy*dy)`` (the mobility
  kernels' ``_distance``), whose every step is correctly rounded.

Loops bounded by *topology* (cells, groups, taps) rather than batch
size are fine — acknowledge them at the line with
``# craqr: ignore[CRQ40x]`` and a justification, as the fused
acquisition round does for its per-cell bookkeeping.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..findings import Finding
from ..project import Module, Project, qualified_definitions
from ..registry import rule

CODES = {
    "CRQ401": ".tolist() in a registered hot path",
    "CRQ402": "per-row loop idiom (range(len)/zip) in a registered hot path",
    "CRQ403": "object construction inside a loop in a registered hot path",
    "CRQ404": "hot-path manifest entry resolves to no function",
    "CRQ405": "libm hypot in a registered hot path",
}

#: The modules whose ``hypot`` CRQ405 flags, as a hot path may import them.
_HYPOT_MODULES = frozenset({"np", "numpy", "math"})


def _resolve(module: Module, symbol: str):
    for name, node in qualified_definitions(module.tree):
        if name == symbol and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return node
    return None


def _is_per_row_iter(node: ast.expr) -> bool:
    """``range(len(...))`` or ``zip(...)`` as a loop's iterable."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
        return False
    if node.func.id == "zip":
        return True
    if node.func.id == "range":
        return any(
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Name)
            and arg.func.id == "len"
            for arg in node.args
        )
    return False


def _is_hypot(func: ast.expr) -> bool:
    """``np.hypot`` / ``numpy.hypot`` / ``math.hypot``, or a bare ``hypot``."""
    if isinstance(func, ast.Name):
        return func.id == "hypot"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "hypot"
        and isinstance(func.value, ast.Name)
        and func.value.id in _HYPOT_MODULES
    )


def _scan_function(
    module: Module, symbol: str, func
) -> Iterator[Finding]:
    def finding(node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            code=code,
            message=message,
            symbol=symbol,
        )

    loop_depth_of = {}

    def walk(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested helpers are registered separately if hot
            child_depth = depth + (1 if isinstance(child, (ast.For, ast.While)) else 0)
            loop_depth_of[child] = child_depth
            walk(child, child_depth)

    walk(func, 0)

    for node, depth in loop_depth_of.items():
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "tolist"
            ):
                yield finding(
                    node,
                    "CRQ401",
                    f"{symbol} is a registered hot path; .tolist() boxes "
                    "a whole column into Python objects",
                )
            elif (
                depth > 0
                and isinstance(node.func, ast.Name)
                and node.func.id[:1].isupper()
            ):
                yield finding(
                    node,
                    "CRQ403",
                    f"{symbol} is a registered hot path; constructing "
                    f"{node.func.id} inside a loop allocates per "
                    "iteration — hoist it or build columns",
                )
            elif _is_hypot(node.func):
                yield finding(
                    node,
                    "CRQ405",
                    f"{symbol} is a registered hot path; hypot is a libm "
                    "call per element, ≈7x the cost of the IEEE spelling "
                    "sqrt(dx*dx + dy*dy) — use the mobility kernels' _distance",
                )
        elif isinstance(node, ast.For) and _is_per_row_iter(node.iter):
            yield finding(
                node,
                "CRQ402",
                f"{symbol} is a registered hot path; a "
                "range(len)/zip loop iterates per row — vectorise it",
            )


@rule("hot-path purity", CODES)
def check(project: Project, context) -> Iterator[Finding]:
    manifest: List[Tuple[str, str]] = context.hot_paths
    # Manifest drift (CRQ404) is only checkable against the real tree:
    # when scanning a fixture subset, entries point outside the project
    # by design.  The full self-scan includes the manifest module itself,
    # which is the signal that every entry must resolve.
    strict = context.hot_paths_strict or project.module_by_suffix(
        "repro/analysis/hotpaths.py"
    ) is not None
    for module_path, symbol in manifest:
        module = project.module_by_suffix(module_path)
        if module is None:
            if strict:
                anchor = project.module_by_suffix("repro/analysis/hotpaths.py")
                yield Finding(
                    path=anchor.path if anchor else module_path,
                    line=1,
                    col=0,
                    code="CRQ404",
                    message=(
                        f"hot-path manifest entry ({module_path!r}, "
                        f"{symbol!r}) names a module not in the analyzed "
                        "tree; update the manifest"
                    ),
                )
            continue
        func = _resolve(module, symbol)
        if func is None:
            yield Finding(
                path=module.path,
                line=1,
                col=0,
                code="CRQ404",
                message=(
                    f"hot-path manifest entry {symbol!r} resolves to no "
                    f"function in {module_path}; the function moved or "
                    "was renamed — update repro.analysis.hotpaths"
                ),
            )
            continue
        yield from _scan_function(module, symbol, func)
