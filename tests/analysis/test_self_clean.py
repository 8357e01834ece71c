"""Tier-1 guard: the repo's own source lints clean.

This is the enforcement point of the whole craqr-lint contract: any new
RNG fallback, partial protocol, undocumented snapshot exclusion, hot-path
regression or wire-schema drift lands as a failing test.  The only waiver
is an inline ``# craqr: ignore[...]`` with its justification, on the
flagged line.
"""

from __future__ import annotations

import pathlib

import repro
from repro.analysis import analyze

PACKAGE = pathlib.Path(repro.__file__).parent


def test_repro_source_lints_clean():
    report = analyze([PACKAGE])
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )
    # The whole package was actually scanned, not a stray subset.
    assert report.checked_files > 100
