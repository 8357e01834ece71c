"""Findings and inline suppressions.

A :class:`Finding` is one rule violation anchored to a file position and
an enclosing *symbol* (the dotted class/function path).

The one waiver is an **inline suppression**: ``# craqr: ignore[CRQ401]``
on the flagged line acknowledges a *permanent, justified* exception (e.g.
a per-cell loop in a hot path that is not per-row work).  A bare
``# craqr: ignore`` suppresses every code on that line.  Any finding not
waived inline fails the run; ``tests/analysis/test_self_clean.py`` is the
tier-1 guard that the package's own source has none.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize
from typing import Dict, FrozenSet, Optional

#: Meta-code for a file the analyzer could not parse.
PARSE_ERROR = "CRQ001"

_SUPPRESS_RE = re.compile(
    r"craqr:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source position.

    ``path`` is package-relative (``repro/sensing/handler.py``) so runs
    from any working directory produce identical findings; ``symbol`` is
    the dotted path of the enclosing definition (empty at module level).
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    symbol: str = ""

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        location = f"{self.path}:{self.line}:{self.col}"
        return f"{location}: {self.code} {self.message}"


def collect_suppressions(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line number -> suppressed codes (``None`` means *all* codes).

    Comments are found with :mod:`tokenize` rather than a per-line regex
    so a string literal that happens to contain the marker never
    suppresses anything.  Unreadable sources yield no suppressions (the
    analyzer reports the parse failure separately).
    """
    suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            line = token.start[0]
            codes = match.group("codes")
            if codes is None:
                suppressions[line] = None
            else:
                parsed = frozenset(
                    c.strip().upper() for c in codes.split(",") if c.strip()
                )
                previous = suppressions.get(line, frozenset())
                if previous is None:
                    continue  # a bare ignore already covers the line
                suppressions[line] = previous | parsed
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return suppressions


def is_suppressed(
    finding: Finding, suppressions: Dict[int, Optional[FrozenSet[str]]]
) -> bool:
    """Whether an inline comment on the finding's line waives it."""
    codes = suppressions.get(finding.line, frozenset())
    if codes is None:
        return True
    return finding.code in codes
