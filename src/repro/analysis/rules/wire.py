"""CRQ5xx — wire-schema consistency between serve client and server.

The serving layer's JSON header schema exists only as string literals
on both ends of the socket (``serve/client.py`` builds headers,
``serve/server.py`` dispatches on them).  Nothing at runtime ties them
together until a request fails in production.  These rules extract both
sides' literals and diff them at lint time:

* ``CRQ501`` — the client emits an ``op`` the server has no
  ``_op_<name>`` handler for.
* ``CRQ502`` — the client sends a header key with an ``op`` whose
  server handler never reads that key (a silently ignored parameter —
  the classic symptom of a renamed field drifting on one side only).
* ``CRQ503`` — a wire magic / protocol-version literal (``CRAQR/...``
  or ``craqr/...``, anywhere in a string, bytes or f-string constant;
  docstrings are prose and exempt) outside ``serve/protocol.py``: both
  ends must import the one definition, or the handshake drifts.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from ..findings import Finding
from ..project import Module, Project, enclosing_symbol, walk_function_body
from ..registry import rule

CODES = {
    "CRQ501": "client emits an op the server does not handle",
    "CRQ502": "client sends a header key the server handler never reads",
    "CRQ503": "wire magic/protocol literal outside serve/protocol.py",
}

#: Header keys the transport layer owns (set/read outside op handlers).
TRANSPORT_KEYS = frozenset({"op", "id"})


# ----------------------------------------------------------------------
# Client side: headers built as dict literals (optionally grown by
# ``header["key"] = ...`` assignments on the same variable).
# ----------------------------------------------------------------------
def _client_requests(module: Module) -> Iterator[Tuple[str, Set[str], int]]:
    """``(op, header keys, line)`` for every header the client builds."""
    for name, func in _functions(module):
        body = list(walk_function_body(func))
        # Pass 1: dict literals with a constant "op" entry, wherever they
        # appear (walk order is not statement order, so growth tracking
        # needs every tracked dict known first).
        var_ops: Dict[str, Tuple[str, Set[str], int]] = {}
        for node in body:
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Dict
            ):
                parsed = _op_dict(node.value)
                if parsed is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            var_ops[target.id] = (
                                parsed[0],
                                set(parsed[1]),
                                node.lineno,
                            )
            elif isinstance(node, ast.Call):
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        parsed = _op_dict(arg)
                        if parsed is not None:
                            yield parsed[0], set(parsed[1]), arg.lineno
        # Pass 2: ``header["key"] = ...`` grows a tracked header dict.
        for node in body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in var_ops
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        var_ops[target.value.id][1].add(target.slice.value)
        for op, keys, line in var_ops.values():
            yield op, keys, line


def _op_dict(node: ast.Dict) -> Optional[Tuple[str, Set[str]]]:
    keys: Set[str] = set()
    op: Optional[str] = None
    for key_node, value_node in zip(node.keys, node.values):
        if not (
            isinstance(key_node, ast.Constant)
            and isinstance(key_node.value, str)
        ):
            return None
        if key_node.value == "op":
            if isinstance(value_node, ast.Constant) and isinstance(
                value_node.value, str
            ):
                op = value_node.value
            else:
                return None  # computed op: out of static reach
        else:
            keys.add(key_node.value)
    if op is None:
        return None
    return op, keys


def _functions(module: Module):
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


# ----------------------------------------------------------------------
# Server side: ``_op_<name>`` handlers and the header keys they read.
# ----------------------------------------------------------------------
def _header_reads(func, param: str) -> Set[str]:
    reads: Set[str] = set()
    for node in walk_function_body(func):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            reads.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == param
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            reads.add(node.args[0].value)
    return reads


def _server_handlers(module: Module) -> Dict[str, Tuple[Set[str], object]]:
    """op name -> (header keys its handler reads, handler node)."""
    handlers: Dict[str, Tuple[Set[str], object]] = {}
    for name, func in _functions(module):
        if not name.startswith("_op_"):
            continue
        header_param = None
        for arg in func.args.args:
            if arg.arg == "header":
                header_param = arg.arg
        reads = (
            _header_reads(func, header_param) if header_param else set()
        )
        handlers[name[len("_op_"):]] = (reads, func)
    return handlers


# ----------------------------------------------------------------------
def _check_pair(client: Module, server: Module) -> Iterator[Finding]:
    handlers = _server_handlers(server)
    for op, keys, line in _client_requests(client):
        symbol = enclosing_symbol(client.tree, line)
        if op not in handlers:
            yield Finding(
                path=client.path,
                line=line,
                col=0,
                code="CRQ501",
                message=(
                    f"client emits op {op!r} but the server defines no "
                    f"_op_{op} handler"
                ),
                symbol=symbol,
            )
            continue
        reads, _handler = handlers[op]
        for key in sorted(keys - reads - TRANSPORT_KEYS):
            yield Finding(
                path=client.path,
                line=line,
                col=0,
                code="CRQ502",
                message=(
                    f"client sends header key {key!r} with op {op!r} but "
                    f"_op_{op} never reads it; the schema drifted"
                ),
                symbol=symbol,
            )


def _check_magic_literals(project: Project) -> Iterator[Finding]:
    for module in project.modules:
        if module.path.endswith("serve/protocol.py"):
            continue
        for node in ast.walk(module.tree):
            # Bare-expression strings (docstrings, prose) are inert.
            if isinstance(node, ast.Expr):
                continue
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.Constant):
                    continue
                value = child.value
                text = (
                    value.decode("ascii", "ignore")
                    if isinstance(value, bytes)
                    else value
                    if isinstance(value, str)
                    else ""
                )
                # Anywhere in the constant (an f-string's literal parts
                # are constants too).  Assembled at runtime so this rule
                # module does not flag its own detection prefix.
                if "CRAQR" + "/" in text.upper():
                    yield Finding(
                        path=module.path,
                        line=child.lineno,
                        col=child.col_offset,
                        code="CRQ503",
                        message=(
                            f"wire magic/protocol literal {value!r} outside "
                            "serve/protocol.py; import the shared "
                            "definition so client and server cannot drift"
                        ),
                        symbol=enclosing_symbol(module.tree, child.lineno),
                    )
    return


@rule("wire-schema consistency", CODES)
def check(project: Project, context) -> Iterator[Finding]:
    client = project.module_by_suffix("serve/client.py")
    server = project.module_by_suffix("serve/server.py")
    if client is not None and server is not None:
        yield from _check_pair(client, server)
    yield from _check_magic_literals(project)
