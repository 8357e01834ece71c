"""CRQ4xx — hot-path purity fixtures (synthetic manifests)."""

from __future__ import annotations

from lint_harness import codes

HOT = [("mod.py", "hot")]


def test_tolist_in_hot_path_flagged(lint):
    report = lint(
        {
            "mod.py": """\
            def hot(col):
                return col.tolist()
            """
        },
        hot_paths=HOT,
    )
    assert codes(report) == ["CRQ401"]


def test_range_len_loop_in_hot_path_flagged(lint):
    report = lint(
        {
            "mod.py": """\
            def hot(col):
                total = 0.0
                for i in range(len(col)):
                    total += col[i]
                return total
            """
        },
        hot_paths=HOT,
    )
    assert codes(report) == ["CRQ402"]


def test_zip_loop_in_hot_path_flagged(lint):
    report = lint(
        {
            "mod.py": """\
            def hot(a, b):
                out = []
                for x, y in zip(a, b):
                    out.append(x + y)
                return out
            """
        },
        hot_paths=HOT,
    )
    assert codes(report) == ["CRQ402"]


def test_object_construction_inside_loop_flagged(lint):
    report = lint(
        {
            "mod.py": """\
            def hot(rows):
                out = []
                for row in rows:
                    out.append(Record(row))
                return out
            """
        },
        hot_paths=HOT,
    )
    # The for-loop itself is not a range(len)/zip loop, so only CRQ403.
    assert codes(report) == ["CRQ403"]


def test_construction_outside_loop_is_clean(lint):
    report = lint(
        {
            "mod.py": """\
            def hot(rows):
                builder = Record(None)
                return builder.consume(rows)
            """
        },
        hot_paths=HOT,
    )
    assert codes(report) == []


def test_cold_function_not_scanned(lint):
    report = lint(
        {
            "mod.py": """\
            def cold(col):
                return col.tolist()
            """
        },
        hot_paths=HOT,
    )
    assert codes(report) == ["CRQ404"]  # 'hot' itself is gone


def test_missing_manifest_module_flagged_when_strict(lint):
    report = lint(
        {"mod.py": "def hot():\n    pass\n"},
        hot_paths=[("mod.py", "hot"), ("vanished.py", "gone")],
    )
    assert codes(report) == ["CRQ404"]


def test_method_manifest_entries_resolve_dotted(lint):
    report = lint(
        {
            "mod.py": """\
            class Handler:
                def run(self, col):
                    return col.tolist()
            """
        },
        hot_paths=[("mod.py", "Handler.run")],
    )
    assert codes(report) == ["CRQ401"]


def test_inline_suppression_waives_hot_path_finding(lint):
    report = lint(
        {
            "mod.py": """\
            def hot(cells, lows, highs):
                out = {}
                for cell, lo, hi in zip(cells, lows, highs):  # craqr: ignore[CRQ402] - per cell
                    out[cell] = (lo, hi)
                return out
            """
        },
        hot_paths=HOT,
    )
    assert codes(report) == []
    assert report.suppressed == 1


def test_hypot_in_hot_path_flagged(lint):
    report = lint(
        {
            "mod.py": """\
            import math

            import numpy as np
            from math import hypot

            def hot(dx, dy):
                return np.hypot(dx, dy), math.hypot(1.0, 2.0), hypot(3.0, 4.0)
            """
        },
        hot_paths=HOT,
    )
    assert codes(report) == ["CRQ405"] * 3
    assert all("sqrt(dx*dx + dy*dy)" in f.message for f in report.findings)


def test_ieee_distance_and_cold_hypot_are_clean(lint):
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            def hot(dx, dy):
                distance = np.multiply(dx, dx)
                np.add(distance, np.multiply(dy, dy), out=distance)
                return np.sqrt(distance, out=distance)

            def cold(dx, dy):
                return np.hypot(dx, dy)
            """
        },
        hot_paths=HOT,
    )
    assert codes(report) == []


def test_suppressed_hypot_is_waived(lint):
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            def hot(dx, dy):
                return np.hypot(dx, dy)  # craqr: ignore[CRQ405] - one scalar per batch
            """
        },
        hot_paths=HOT,
    )
    assert codes(report) == []
    assert report.suppressed == 1


def test_committed_manifest_resolves_against_real_tree():
    """Every entry in the shipped manifest must resolve (CRQ404 guard)."""
    import pathlib

    import repro
    from repro.analysis import analyze

    src = pathlib.Path(repro.__file__).parent
    report = analyze([src], baseline_path=None)
    assert [f for f in report.findings if f.code == "CRQ404"] == []
