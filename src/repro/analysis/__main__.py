"""``python -m repro.analysis`` — the craqr-lint command line.

Exit codes follow the tooling contract asserted in ``tests/test_cli.py``:

* ``0`` — no un-waived findings,
* ``1`` — findings not waived inline,
* ``2`` — usage error (a bad option or a missing path).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from .registry import all_codes
from .runner import analyze, render


def _default_paths() -> list:
    """The package's own source tree (``src/repro``), wherever installed."""
    return [pathlib.Path(__file__).resolve().parent.parent]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="craqr-lint: static contract checker for the engine's "
        "RNG, snapshot, protocol, hot-path and wire invariants",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the installed "
        "repro package source)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="list every rule code with its rationale and exit",
    )
    return parser


def main(
    argv: Optional[Sequence[str]] = None, out=print
) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help: pass both through.
        return int(exc.code or 0)

    if args.explain:
        for code, rationale in sorted(all_codes().items()):
            out(f"{code}  {rationale}")
        return 0

    paths = [pathlib.Path(p) for p in args.paths] or _default_paths()
    for path in paths:
        if not path.exists():
            out(f"error: no such path: {path}")
            return 2
    report = analyze(paths)
    out(render(report, args.format))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
