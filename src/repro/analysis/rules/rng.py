"""CRQ1xx — RNG stream discipline (the byte-identity contract).

Seeded byte-identity (``tests/recovery/``, ``tests/faults/``,
``tests/plan/test_compiled_equivalence.py``) holds only if every random
draw flows through an *owned* ``np.random.Generator``: the world stream,
a child spawned from it, an operator's reseeded stream, or the fault
injector's private plan-seeded stream.  One draw from a global or
OS-seeded stream anywhere in the engine silently breaks the golden
hashes — long after the offending line was written.

* ``CRQ101`` — the stdlib ``random`` module is imported.  It is a
  process-global stream; nothing in ``src/repro`` may touch it.
* ``CRQ102`` — a call through numpy's module-level global stream
  (``np.random.random()``, ``np.random.seed()``, ...).  Draws must go
  through a ``Generator`` instance that some object owns.
* ``CRQ103`` — ``np.random.default_rng()`` / ``Generator()`` /
  ``SeedSequence()`` *without a seed argument* outside the sanctioned
  entropy module (``repro/rng.py``).  Explicitly seeded construction —
  ``default_rng(config.seed)``, spawning a child via
  ``default_rng(parent.integers(...))``, or ``SeedSequence(seed)`` to
  derive a key without drawing from any stream — is the sanctioned
  pattern and is allowed anywhere.
* ``CRQ104`` — a function that *takes* an ``rng`` parameter also
  reaches a global or fresh OS-seeded stream.  Accepting a stream is a
  promise to use only that stream; the fallback idiom ``rng if rng is
  not None else np.random.default_rng()`` must go through
  :func:`repro.rng.ensure_rng` so the single nondeterministic entry
  point stays auditable.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..findings import Finding
from ..project import (
    Module,
    Project,
    enclosing_symbol,
    function_params,
    import_map,
    resolve_dotted,
    walk_function_body,
)
from ..registry import rule

CODES = {
    "CRQ101": "stdlib random module imported (process-global stream)",
    "CRQ102": "call through numpy's module-level global RNG",
    "CRQ103": "unseeded default_rng()/Generator()/SeedSequence() outside repro/rng.py",
    "CRQ104": "function taking an rng parameter reaches another stream",
}

#: Attribute names on ``numpy.random`` that construct a new stream (or,
#: for ``SeedSequence``, the entropy a stream or key is derived from)
#: rather than drawing from the global one.
_CONSTRUCTORS = frozenset({"default_rng", "Generator", "SeedSequence"})

#: Modules allowed to create unseeded streams: the one audited entropy
#: entry point every seeded caller bypasses by passing its own stream.
SANCTIONED_UNSEEDED = ("repro/rng.py",)


def _is_sanctioned(module: Module) -> bool:
    return any(module.path.endswith(s) for s in SANCTIONED_UNSEEDED)


def _finding(module: Module, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=module.path,
        line=node.lineno,
        col=node.col_offset,
        code=code,
        message=message,
        symbol=enclosing_symbol(module.tree, node.lineno),
    )


def _check_module(module: Module) -> Iterator[Finding]:
    imports = import_map(module.tree)

    # CRQ101 — stdlib random imports anywhere in the file.
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield _finding(
                        module,
                        node,
                        "CRQ101",
                        "stdlib 'random' is a process-global stream; draw "
                        "from an owned np.random.Generator instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "random":
                yield _finding(
                    module,
                    node,
                    "CRQ101",
                    "stdlib 'random' is a process-global stream; draw "
                    "from an owned np.random.Generator instead",
                )

    # Function-aware pass for CRQ102/103/104: visit every function once,
    # remembering whether it owns an ``rng`` parameter, then sweep the
    # module-level remainder.
    def scan(nodes: List[ast.AST], has_rng_param: bool) -> Iterator[Finding]:
        for node in nodes:
            if isinstance(node, ast.Call):
                dotted = resolve_dotted(node.func, imports)
                if dotted is None or not dotted.startswith("numpy.random."):
                    continue
                leaf = dotted.rsplit(".", 1)[1]
                if leaf not in _CONSTRUCTORS:
                    if has_rng_param:
                        yield _finding(
                            module,
                            node,
                            "CRQ104",
                            f"function owns an 'rng' stream but draws from "
                            f"the global {dotted}()",
                        )
                    else:
                        yield _finding(
                            module,
                            node,
                            "CRQ102",
                            f"{dotted}() draws from numpy's global stream; "
                            "use an owned np.random.Generator",
                        )
                elif not node.args and not node.keywords:
                    if _is_sanctioned(module):
                        continue
                    if has_rng_param:
                        yield _finding(
                            module,
                            node,
                            "CRQ104",
                            "function owns an 'rng' stream but falls back "
                            "to an unseeded stream; use "
                            "repro.rng.ensure_rng(rng)",
                        )
                    else:
                        yield _finding(
                            module,
                            node,
                            "CRQ103",
                            f"unseeded np.random.{leaf}() creates an "
                            "OS-entropy stream; seed it explicitly or go "
                            "through repro.rng",
                        )

    def visit_scope(scope: ast.AST, in_function: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owns_rng = "rng" in function_params(child)
                yield from scan(list(walk_function_body(child)), owns_rng)
                yield from visit_scope(child, True)
            elif isinstance(child, ast.ClassDef):
                yield from visit_scope(child, in_function)
            elif not in_function:
                # Module-level statements (or class-level outside methods),
                # pruned at nested definitions — those get their own visit.
                # Statements inside a function were already scanned with
                # that function's rng context.
                direct = [child] + list(walk_function_body(child))
                yield from scan(direct, False)

    yield from visit_scope(module.tree, False)


@rule("RNG stream discipline", CODES)
def check(project: Project, context) -> Iterator[Finding]:
    for module in project.modules:
        yield from _check_module(module)
