"""Count the code lines of Python source trees.

A code line is a physical line that carries at least one token other than a
comment, a line break or indentation, and that is not part of a docstring
(the string-literal statement opening a module, class or function body).
Blank lines, comment-only lines and docstrings are therefore not counted;
a multi-line string that is *not* a docstring counts every line it spans.

Usage::

    python .github/count_code_lines.py src tests
    python .github/count_code_lines.py --per-file src/repro/sensing

Prints one total per argument (a directory is searched recursively for
``*.py``; a file is counted alone) and, with ``--per-file``, every file's
count first.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize
from typing import List, Optional, Sequence, Set

_NOT_CODE = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)

_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's ``source``."""
    skipped = docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def python_files(root: pathlib.Path) -> List[pathlib.Path]:
    """``root`` itself if it is a file, else every ``*.py`` below it, sorted."""
    if root.is_file():
        return [root]
    return sorted(root.rglob("*.py"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=pathlib.Path)
    parser.add_argument(
        "--per-file", action="store_true", help="print every file's count too"
    )
    args = parser.parse_args(argv)
    for root in args.paths:
        if not root.exists():
            parser.error(f"no such file or directory: {root}")
        total = 0
        for path in python_files(root):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            if args.per_file:
                print(f"{count:7d}  {path}")
        print(f"{total:7d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
