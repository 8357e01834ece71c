"""Unit tests for stream operators, sinks and topologies."""

import pytest

from repro.errors import StreamError
from repro.streams import (
    CallbackSink,
    CollectingSink,
    CountingSink,
    FilterOperator,
    SensorTuple,
    StreamOperator,
    StreamTopology,
)


class PassThroughOperator(StreamOperator):
    """Forwards every tuple unchanged: a bare node for topology tests."""

    symbol = "I"

    def process(self, item):
        self.emit(item)


def make_tuple(tuple_id=0, attribute="rain", t=1.0, x=0.5, y=0.5, value=None):
    return SensorTuple(tuple_id=tuple_id, attribute=attribute, t=t, x=x, y=y, value=value)


class TestBasicOperators:
    def test_pass_through_forwards(self):
        op = PassThroughOperator()
        sink = CollectingSink().attach(op.output)
        op.accept(make_tuple())
        assert len(sink) == 1
        assert op.tuples_in == 1 and op.tuples_out == 1

    def test_filter_keeps_matching(self):
        op = FilterOperator(lambda item: item.attribute == "rain")
        sink = CollectingSink().attach(op.output)
        op.accept(make_tuple(attribute="rain"))
        op.accept(make_tuple(attribute="temp"))
        assert len(sink) == 1
        assert sink.items[0].attribute == "rain"

    def test_operator_names_are_unique(self):
        a = PassThroughOperator()
        b = PassThroughOperator()
        assert a.name != b.name
        assert a.operator_id != b.operator_id

    def test_emit_to_missing_output_raises(self):
        op = PassThroughOperator()
        with pytest.raises(StreamError):
            op.emit(make_tuple(), output_index=3)

    def test_describe_contains_symbol(self):
        assert "I" in PassThroughOperator().describe()


class TestSinks:
    def test_collecting_sink(self):
        sink = CollectingSink()
        sink(make_tuple(t=1.0))
        sink(make_tuple(t=2.0))
        assert len(sink) == 2
        sink.clear()
        assert len(sink) == 0

    def test_collecting_sink_to_event_batch(self):
        sink = CollectingSink()
        sink(make_tuple(t=1.0, x=0.1, y=0.2))
        batch = sink.to_event_batch()
        assert len(batch) == 1
        assert batch.t[0] == 1.0

    def test_counting_sink(self):
        sink = CountingSink()
        sink(make_tuple(t=5.0))
        assert sink.count == 1
        assert sink.last_timestamp == 5.0

    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink(make_tuple())
        assert sink.count == 1
        assert len(seen) == 1


class TestStreamTopology:
    def test_chain_construction_and_injection(self):
        topology = StreamTopology("cell")
        first = topology.add_operator(PassThroughOperator("a"))
        second = topology.add_operator(PassThroughOperator("b"), upstream=first.output)
        sink = CollectingSink().attach(second.output)
        topology.inject(make_tuple())
        assert len(sink) == 1
        assert len(topology) == 2

    def test_duplicate_operator_rejected(self):
        topology = StreamTopology("cell")
        op = PassThroughOperator("dup")
        topology.add_operator(op)
        with pytest.raises(StreamError):
            topology.add_operator(op)

    def test_foreign_upstream_rejected(self):
        topology = StreamTopology("cell")
        other = StreamTopology("other")
        foreign = other.add_operator(PassThroughOperator("x"))
        with pytest.raises(StreamError):
            topology.add_operator(PassThroughOperator("y"), upstream=foreign.output)

    def test_branching_points_detected(self):
        topology = StreamTopology("cell")
        root = topology.add_operator(PassThroughOperator("root"))
        topology.add_operator(PassThroughOperator("left"), upstream=root.output)
        topology.add_operator(PassThroughOperator("right"), upstream=root.output)
        points = topology.branching_points()
        assert len(points) == 1
        assert points[0].fan_out == 2

    def test_chain_from_entry_stops_at_branch(self):
        topology = StreamTopology("cell")
        a = topology.add_operator(PassThroughOperator("a"))
        b = topology.add_operator(PassThroughOperator("b"), upstream=a.output)
        topology.add_operator(PassThroughOperator("c"), upstream=b.output)
        topology.add_operator(PassThroughOperator("d"), upstream=b.output)
        chain = [op.name for op in topology.chain_from_entry()]
        assert chain == ["a", "b"]

    def test_remove_leaf_operator(self):
        topology = StreamTopology("cell")
        a = topology.add_operator(PassThroughOperator("a"))
        topology.add_operator(PassThroughOperator("b"), upstream=a.output)
        topology.remove_operator("b")
        assert not topology.has_operator("b")

    def test_remove_operator_with_consumers_rejected(self):
        topology = StreamTopology("cell")
        a = topology.add_operator(PassThroughOperator("a"))
        topology.add_operator(PassThroughOperator("b"), upstream=a.output)
        with pytest.raises(StreamError):
            topology.remove_operator("a")

    def test_rewire(self):
        topology = StreamTopology("cell")
        a = topology.add_operator(PassThroughOperator("a"))
        b = topology.add_operator(PassThroughOperator("b"))
        c = topology.add_operator(PassThroughOperator("c"), upstream=a.output)
        topology.rewire("c", b.output)
        sink = CollectingSink().attach(c.output)
        # Tuples now reach c through b, not a.
        b.accept(make_tuple())
        assert len(sink) == 1

    def test_describe_mentions_operators(self):
        topology = StreamTopology("cell")
        topology.add_operator(PassThroughOperator("visible"))
        assert "visible" in topology.describe()

    def test_unknown_operator_lookup_raises(self):
        with pytest.raises(StreamError):
            StreamTopology("cell").operator("missing")

