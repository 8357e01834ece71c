"""Rule registration.

A rule is a callable ``check(project, context) -> iterable[Finding]``
registered with :func:`rule`.  Registration carries the rule family's
codes and one-line rationales, which is what the ``--explain`` output
and the documentation generator read — a rule cannot ship without
documenting its codes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple


class RuleSpec(NamedTuple):
    name: str
    codes: Dict[str, str]  # code -> one-line rationale
    check: Callable


_RULES: List[RuleSpec] = []


def rule(name: str, codes: Dict[str, str]):
    """Register one rule family (decorator)."""

    def decorate(fn: Callable) -> Callable:
        _RULES.append(RuleSpec(name=name, codes=dict(codes), check=fn))
        return fn

    return decorate


def all_rules() -> List[RuleSpec]:
    """Every registered rule, in registration order."""
    from . import rules  # noqa: F401 - registration side effect

    return list(_RULES)


def all_codes() -> Dict[str, str]:
    """Every documented code -> rationale (the meta code included)."""
    from .findings import PARSE_ERROR

    codes = {PARSE_ERROR: "file could not be parsed"}
    for spec in all_rules():
        codes.update(spec.codes)
    return codes
