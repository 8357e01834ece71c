"""craqr-lint: the repo's own contract checker.

A rule-based static analyzer (stdlib ``ast`` only) that enforces the
invariants the engine's correctness rests on but no general-purpose
tool can see:

* **CRQ1xx** — RNG stream discipline (seeded byte-identity),
* **CRQ2xx** — batch-protocol completeness (fast-path dispatch),
* **CRQ3xx** — snapshot state coverage (crash-recovery contract),
* **CRQ4xx** — hot-path purity (no per-row Python in gated loops),
* **CRQ5xx** — wire-schema consistency (serve client/server literals).

Run it with ``python -m repro.analysis``; see ``docs/craqr_lint.md`` for
the rule reference and the inline suppression syntax.  Any finding not
waived inline fails the run, and ``tests/analysis/test_self_clean.py``
keeps the package's own source at zero findings in tier 1.
"""

from .findings import Finding
from .hotpaths import HOT_PATHS, default_hot_paths
from .registry import all_codes, all_rules
from .runner import AnalysisReport, analyze, render

__all__ = [
    "AnalysisReport",
    "Finding",
    "HOT_PATHS",
    "all_codes",
    "all_rules",
    "analyze",
    "default_hot_paths",
    "render",
]
