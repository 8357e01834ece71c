"""Declarative acquisitional query language.

The paper argues for "declarative specification of data acquisition
queries".  This package provides a small textual language for the simplest
acquisitional query — attribute, region, rate — in the spirit of the paper's
example Q1::

    ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 10 PER KM2 PER MIN

plus the session DDL — ``ALTER <name> SET RATE 5 PER KM2 PER MIN``,
``ALTER <name> SET REGION RECT(...)``, ``STOP <name>`` and ``SHOW
QUERIES`` — and the continuous-view DDL — ``CREATE VIEW <name> ON <query>
AS AGG(value) [GROUP BY CELL|ATTRIBUTE] WINDOW <dur> [SLIDE <dur>]``,
``DROP VIEW <name>``, ``SHOW VIEWS`` — plus ``EXPLAIN <query|view>`` for
the live plan (:mod:`repro.plan`), executed against a live engine by
:meth:`repro.core.engine.CraqrEngine.execute`, and an attribute catalog
that records which attributes exist and whether they are human- or
sensor-sensed.
"""

from .ast import (
    AlterStatement,
    CreateViewStatement,
    DropViewStatement,
    ExplainStatement,
    ParsedQuery,
    RegionLiteral,
    ShowQueriesStatement,
    ShowViewsStatement,
    Statement,
    StopStatement,
)
from .lexer import Token, TokenType, tokenize
from .parser import parse_query, parse_queries, parse_statements
from .catalog import AttributeCatalog, AttributeInfo, AttributeKind
from .render import frames_table, health_table, sessions_table, views_table

__all__ = [
    "AlterStatement",
    "CreateViewStatement",
    "DropViewStatement",
    "ExplainStatement",
    "ShowViewsStatement",
    "ParsedQuery",
    "RegionLiteral",
    "ShowQueriesStatement",
    "Statement",
    "StopStatement",
    "Token",
    "TokenType",
    "tokenize",
    "parse_query",
    "parse_queries",
    "parse_statements",
    "AttributeCatalog",
    "AttributeInfo",
    "AttributeKind",
    "frames_table",
    "health_table",
    "sessions_table",
    "views_table",
]
