"""Unit tests for the metrics layer (rates, violations, cost, reporting)."""

import pytest

from repro.errors import CraqrError
from repro.metrics import (
    CostModel,
    CostReport,
    ResultTable,
    ViolationTracker,
    achieved_rate,
    format_table,
)
from repro.streams import SensorTuple


def make_tuples(count):
    return [
        SensorTuple(tuple_id=i, attribute="rain", t=float(i), x=0.0, y=0.0)
        for i in range(count)
    ]


class TestRateMetrics:
    def test_achieved_rate(self):
        assert achieved_rate(make_tuples(20), area=2.0, duration=5.0) == pytest.approx(2.0)

    def test_achieved_rate_validation(self):
        with pytest.raises(CraqrError):
            achieved_rate([], area=0.0, duration=1.0)

    @pytest.mark.parametrize(
        "area, duration", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -0.5)]
    )
    def test_a_window_without_volume_is_refused(self, area, duration):
        with pytest.raises(CraqrError):
            achieved_rate(make_tuples(3), area=area, duration=duration)

    def test_an_empty_stream_has_rate_zero(self):
        assert achieved_rate([], area=4.0, duration=2.0) == 0.0


class TestViolationTracker:
    def test_record_and_latest(self):
        tracker = ViolationTracker()
        tracker.record({("rain", (0, 0)): 10.0})
        tracker.record({("rain", (0, 0)): 2.0})
        assert tracker.latest(("rain", (0, 0))) == 2.0
        assert tracker.mean(("rain", (0, 0))) == pytest.approx(6.0)

    def test_unknown_pair_defaults(self):
        tracker = ViolationTracker()
        assert tracker.latest(("rain", (9, 9))) == 0.0
        assert tracker.mean(("rain", (9, 9))) == 0.0

    def test_negative_violation_rejected(self):
        with pytest.raises(CraqrError):
            ViolationTracker().record({("rain", (0, 0)): -1.0})

    def test_overall_mean(self):
        tracker = ViolationTracker()
        tracker.record({("rain", (0, 0)): 10.0, ("temp", (1, 1)): 20.0})
        assert tracker.overall_mean() == pytest.approx(15.0)
        assert ViolationTracker().overall_mean() == 0.0

    def test_convergence_needs_a_full_window_below_the_threshold(self):
        tracker = ViolationTracker()
        pair = ("rain", (0, 0))
        for value in [50.0, 20.0, 4.0, 3.0, 2.0, 1.0, 0.0]:
            tracker.record({pair: value})
        assert tracker.converged(pair, 5.0, window=5)
        assert not tracker.converged(pair, 5.0, window=7)


class TestCost:
    def test_cost_model_validation(self):
        with pytest.raises(CraqrError):
            CostModel(cost_per_request=-1.0)

    def test_cost_report_total(self):
        report = CostReport(requests=100, responses=50, incentive_spent=10.0)
        expected = 100 * 1.0 + 50 * 0.2 + 10.0 * 1.0
        assert report.total == pytest.approx(expected)

    def test_per_delivered_tuple(self):
        report = CostReport(requests=100, responses=50, incentive_spent=0.0)
        assert report.per_delivered_tuple(55) == pytest.approx(report.total / 55)
        assert report.per_delivered_tuple(0) == float("inf")
        with pytest.raises(CraqrError):
            report.per_delivered_tuple(-1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(CraqrError):
            CostReport(requests=-1, responses=0, incentive_spent=0.0)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "long-name" in lines[2] or "long-name" in lines[3]

    def test_format_table_validation(self):
        with pytest.raises(CraqrError):
            format_table([], [])
        with pytest.raises(CraqrError):
            format_table(["a"], [["x", "y"]])

    def test_result_table_rows_and_columns(self):
        table = ResultTable("demo", ["queries", "cost"])
        table.add_row(1, 10.0)
        table.add_row(2, 18.0)
        assert table.column("cost") == [10.0, 18.0]
        rendered = table.render()
        assert "demo" in rendered and "queries" in rendered

    def test_result_table_wrong_arity(self):
        table = ResultTable("demo", ["a", "b"])
        with pytest.raises(CraqrError):
            table.add_row(1)

    def test_result_table_unknown_column(self):
        table = ResultTable("demo", ["a"])
        with pytest.raises(CraqrError):
            table.column("missing")
