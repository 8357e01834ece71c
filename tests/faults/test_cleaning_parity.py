"""Cleaning operators on fault-corrupted streams.

The error-mitigation operators are the engine's last line of defence
against an injected fault plan: on a stream heavy with injected outliers
the filter must discard exactly what it counts as dropped, and the clamp
must bring every displaced tuple back into the deployment region.
"""

import numpy as np

from repro.core.pmat import ClampOperator, OutlierFilterOperator
from repro.faults import FaultPlan
from repro.geometry import Rectangle
from repro.streams import CollectingSink
from tests.faults.test_retry_health import make_handler, make_world

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def corrupted_stream(*, rounds=3):
    """Tuples acquired under a plan spiking one response in four."""
    plan = FaultPlan(seed=13, outlier_probability=0.25, outlier_scale=60.0)
    world = make_world(vectorized=False, sensor_count=800, seed=37)
    handler = make_handler(world, budget=50, faults=plan)
    items = []
    for _ in range(rounds):
        tuples_by_cell, _ = handler.acquire(
            {"temp": list(handler.grid.cells())}, duration=1.0
        )
        for cell_items in tuples_by_cell.values():
            items.extend(cell_items)
        world.advance(1.0)
    assert handler.faults.outliers_injected > 100
    return items


def object_path(operator, items):
    sink = CollectingSink().attach(operator.outputs[0])
    for item in items:
        operator.accept(item)
    operator.flush()
    return list(sink.items)


class TestOutlierFilterParity:
    def test_discard_accounting_matches_under_heavy_outliers(self):
        items = corrupted_stream()
        object_op = OutlierFilterOperator(window=50, z_threshold=4.0)
        kept_objects = object_path(object_op, items)
        # The injected spikes actually exercise the filter...
        assert object_op.dropped > 0
        # ...and what it counts as dropped is exactly what it did not pass on.
        assert len(items) - len(kept_objects) == object_op.dropped
        assert (object_op.tuples_in, object_op.tuples_out) == (len(items), len(kept_objects))


class TestClampParity:
    def test_clamp_accounting_matches_on_displaced_tuples(self):
        items = corrupted_stream(rounds=1)
        # Displace a deterministic subset out of the region, mimicking the
        # gross GPS errors the clamp exists for.
        displaced = [
            item if i % 3 else type(item)(
                tuple_id=item.tuple_id,
                attribute=item.attribute,
                t=item.t,
                x=item.x + 10.0,
                y=item.y - 10.0,
                value=item.value,
                sensor_id=item.sensor_id,
            )
            for i, item in enumerate(items)
        ]
        object_op = ClampOperator(REGION)
        clamped_objects = object_path(object_op, displaced)
        # Every displaced tuple, and no other, is clamped...
        assert object_op.clamped == len(displaced[::3])
        assert [item.tuple_id for item in clamped_objects] == [
            item.tuple_id for item in displaced
        ]
        # ...and every coordinate is back inside the deployment region.
        x = np.array([item.x for item in clamped_objects])
        y = np.array([item.y for item in clamped_objects])
        assert x.min() >= REGION.x_min and x.max() <= REGION.x_max
        assert y.min() >= REGION.y_min and y.max() <= REGION.y_max
