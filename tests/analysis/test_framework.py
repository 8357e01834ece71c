"""Analyzer framework: suppressions and report plumbing."""

from __future__ import annotations

import json

from repro.analysis import Finding, all_codes, all_rules, render
from repro.analysis.findings import collect_suppressions, is_suppressed

from lint_harness import codes

UNSEEDED = """\
import numpy as np

def fresh():
    return np.random.default_rng()
"""


# ----------------------------------------------------------------------
# Suppression comment parsing
# ----------------------------------------------------------------------
def test_collect_suppressions_with_codes():
    source = "x = 1  # craqr: ignore[CRQ103]\ny = 2\n"
    supp = collect_suppressions(source)
    assert supp == {1: frozenset({"CRQ103"})}


def test_collect_suppressions_multiple_codes():
    source = "x = 1  # craqr: ignore[CRQ103, CRQ104] - reason\n"
    assert collect_suppressions(source) == {1: frozenset({"CRQ103", "CRQ104"})}


def test_collect_suppressions_bare_ignores_everything():
    source = "x = 1  # craqr: ignore\n"
    supp = collect_suppressions(source)
    assert supp == {1: None}
    finding = Finding(path="mod.py", line=1, col=0, code="CRQ999", message="m")
    assert is_suppressed(finding, supp)


def test_suppression_on_other_line_does_not_waive():
    supp = collect_suppressions("x = 1  # craqr: ignore[CRQ103]\ny = 2\n")
    finding = Finding(path="mod.py", line=2, col=0, code="CRQ103", message="m")
    assert not is_suppressed(finding, supp)


def test_wrong_code_does_not_waive():
    supp = collect_suppressions("x = 1  # craqr: ignore[CRQ104]\n")
    finding = Finding(path="mod.py", line=1, col=0, code="CRQ103", message="m")
    assert not is_suppressed(finding, supp)


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
def test_parse_error_reported_as_crq001(lint):
    report = lint({"broken.py": "def broken(:\n"})
    assert codes(report) == ["CRQ001"]


def test_render_json_round_trips(lint):
    report = lint({"mod.py": UNSEEDED})
    payload = json.loads(render(report, "json"))
    assert payload["ok"] is False
    assert payload["findings"][0]["code"] == "CRQ103"
    assert "CRQ103" in render(report, "text")


def test_every_registered_code_has_a_rationale():
    registered = set()
    for spec in all_rules():
        registered.update(spec.codes)
    assert registered <= set(all_codes())
    # Five rule families, plus the parse-error meta code.
    families = {code[:4] for code in registered}
    assert families == {"CRQ1", "CRQ2", "CRQ3", "CRQ4", "CRQ5"}
    assert set(all_codes()) - registered == {"CRQ001"}
