"""Analyzer orchestration: load, check, suppress, render.

:func:`analyze` is the programmatic entry point (the CLI and the tier-1
self-scan test both go through it): parse the requested tree, run every
registered rule and drop findings waived by inline ``# craqr: ignore``
comments; what remains is the report.  ``__main__`` turns it into the exit
code: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import dataclasses
import json
from typing import List, Optional, Sequence, Tuple

from .findings import Finding, is_suppressed
from .hotpaths import default_hot_paths
from .project import Project, load_project
from .registry import all_rules


@dataclasses.dataclass
class AnalysisContext:
    """Per-run configuration handed to every rule."""

    hot_paths: List[Tuple[str, str]]
    hot_paths_strict: bool = False


@dataclasses.dataclass
class AnalysisReport:
    """Everything one run produced."""

    findings: List[Finding]  # findings not waived inline
    suppressed: int  # findings waived by inline comments
    checked_files: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked_files": self.checked_files,
            "suppressed": self.suppressed,
            "findings": [f.to_json() for f in self.findings],
        }

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.checked_files} "
            f"file(s) ({self.suppressed} suppressed inline)"
        )
        return "\n".join(lines + [summary])


def run_rules(project: Project, context: AnalysisContext) -> List[Finding]:
    """All raw findings from every registered rule, sorted."""
    findings: List[Finding] = list(project.parse_errors)
    for spec in all_rules():
        findings.extend(spec.check(project, context))
    return sorted(findings)


def analyze(
    paths: Sequence,
    *,
    hot_paths: Optional[List[Tuple[str, str]]] = None,
) -> AnalysisReport:
    """Run the full analyzer over ``paths``.

    ``hot_paths`` overrides the committed manifest — fixture tests pass
    a synthetic manifest; the CLI always uses the committed one.
    """
    project = load_project(paths)
    context = AnalysisContext(
        hot_paths=hot_paths if hot_paths is not None else default_hot_paths(),
        hot_paths_strict=hot_paths is not None,
    )
    raw = run_rules(project, context)

    kept: List[Finding] = []
    suppressed = 0
    for finding in raw:
        module = project.module(finding.path)
        if module is not None and is_suppressed(finding, module.suppressions):
            suppressed += 1
        else:
            kept.append(finding)

    return AnalysisReport(
        findings=kept,
        suppressed=suppressed,
        checked_files=len(project.modules),
    )


def render(report: AnalysisReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2)
    return report.render_text()
