"""Equivalence tests for continuous views (ISSUE 5 acceptance).

Two guarantees are pinned down here:

* **incremental == from-scratch** — every view aggregate equals a
  recomputation from the raw cursor output of the same seeded run (plain
  numpy for the order-independent aggregates; the declared fold/merge
  semantics for the order-sensitive ones, applied to the raw tuples);
* **window boundary semantics** — a tuple timestamped exactly on a
  tumbling/sliding boundary lands in exactly one frame.
"""

import numpy as np
import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.core.engine import CraqrEngine
from repro.core.query import AcquisitionalQuery
from repro.geometry import Grid, Rectangle, RectRegion
from repro.storage import QueryResultBuffer
from repro.streams import SensorTuple, TupleBatch
from repro.sensing import RainField, SensingWorld, TemperatureField, WorldConfig
from repro.views import ContinuousView, ViewSpec, get_aggregate

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

AGGREGATES = ["COUNT", "SUM", "AVG", "MIN", "MAX", "P50", "P90"]


def make_engine(seed=7):
    world = SensingWorld(WorldConfig(region=REGION, sensor_count=150, seed=42))
    world.register_field(RainField(REGION, band_width=1.2, period=40.0))
    world.register_field(
        TemperatureField(REGION, heat_islands=[(1.0, 1.0, 3.0, 0.5)])
    )
    config = EngineConfig(
        grid_cells=16,
        seed=seed,
        budget=BudgetConfig(initial=30, delta=5, limit=300),
    )
    return CraqrEngine(config, world)


def run_with_views(batches=6, attribute="temp", spec_kwargs=None):
    """Run a seeded engine with one view per aggregate; return frames + raw."""
    engine = make_engine()
    handle = engine.register_query(
        AcquisitionalQuery(
            attribute, RectRegion(Rectangle(0.0, 0.0, 2.0, 2.0)), rate=20.0
        )
    )
    spec_kwargs = spec_kwargs or {"window": 2.0, "group_by": "cell"}
    views = {
        name: handle.view(ViewSpec(aggregate=name, **spec_kwargs))
        for name in AGGREGATES
    }
    cursor = handle.cursor()
    raw = []
    for _ in range(batches):
        engine.run_batch()
        raw.extend(cursor.fetch())
    return engine, views, raw


class TestIncrementalEqualsRecompute:
    def group_key(self, engine, spec, item):
        if spec.group_by == "cell":
            cell = engine.grid.locate(item.x, item.y)
            return cell.key
        if spec.group_by == "attribute":
            return item.attribute
        return "*"

    def test_all_aggregates_match_from_scratch_recompute(self):
        engine, views, raw = run_with_views()
        for name, view in views.items():
            aggregate = get_aggregate(name)
            spec = view.spec
            for frame in view.frames():
                in_window = [
                    item
                    for item in raw
                    if frame.window_start <= item.t < frame.window_end
                ]
                by_group = {}
                for item in in_window:
                    by_group.setdefault(
                        self.group_key(engine, spec, item), []
                    ).append(item)
                assert sorted(by_group) == list(frame.keys), (name, frame)
                for i, key in enumerate(frame.keys):
                    items = by_group[key]
                    values = np.array([float(item.value) for item in items])
                    assert int(frame.counts[i]) == len(items)
                    got = float(frame.values[i])
                    if name == "COUNT":
                        assert got == float(len(items))
                    elif name == "MIN":
                        assert got == values.min()
                    elif name == "MAX":
                        assert got == values.max()
                    elif name in ("P50", "P90"):
                        # Small windows: the sketch never compacted, so the
                        # frame value is the exact nearest-rank percentile.
                        q = int(name[1:]) / 100.0
                        rank = max(1, int(np.ceil(q * len(values))))
                        assert got == np.sort(values)[rank - 1]
                    else:  # SUM / AVG: recompute through the declared
                        # fold/merge semantics in raw delivery order.
                        state = aggregate.fold(
                            aggregate.new_state(), values, len(items)
                        )
                        assert got == pytest.approx(
                            aggregate.result(state), rel=1e-12
                        )
                        reference = (
                            values.sum() if name == "SUM" else values.mean()
                        )
                        assert got == pytest.approx(reference, rel=1e-9)

    def test_sliding_frames_recompute_over_overlaps(self):
        engine, views, raw = run_with_views(
            spec_kwargs={"window": 2.0, "slide": 1.0, "group_by": "region"}
        )
        count_view = views["COUNT"]
        frames = count_view.frames()
        assert len(frames) >= 4
        for frame in frames:
            expected = sum(
                1 for item in raw if frame.window_start <= item.t < frame.window_end
            )
            assert frame.tuples == expected


class TestBoundarySemantics:
    """A tuple exactly on a window boundary lands in exactly one frame."""

    def make_view(self, spec):
        return ContinuousView(
            spec,
            name="V",
            query_id=1,
            query_label="Q",
            grid=Grid(REGION, 2),
            batch_duration=1.0,
        )

    def tuples(self):
        return [
            SensorTuple(tuple_id=i, attribute="rain", t=t, x=0.5, y=0.5, value=1.0)
            for i, t in enumerate([0.5, 1.0, 1.5])  # 1.0 is exactly on the boundary
        ]

    @pytest.mark.parametrize(
        "spec_kwargs",
        [{"window": 1.0}, {"window": 2.0, "slide": 1.0}],
        ids=["tumbling", "sliding"],
    )
    def test_boundary_tuple_in_exactly_one_pane(self, spec_kwargs):
        buffer = QueryResultBuffer(1, requested_rate=10.0, region_area=4.0)
        view = self.make_view(ViewSpec(aggregate="COUNT", **spec_kwargs))
        view.attach(buffer.subscribe(view.on_delivery))
        buffer.extend_batch(TupleBatch.from_tuples(self.tuples()))
        buffer.end_batch()
        frames = view.advance_to(3.0)
        if "slide" in spec_kwargs:
            # Sliding [0,2) and [1,3): t=1.0 is in both windows but in
            # exactly one *pane*; [0,2) holds {0.5, 1.0, 1.5}, [1,3) holds
            # {1.0, 1.5}.
            assert [f.tuples for f in frames] == [3, 2]
        else:
            # Tumbling [0,1), [1,2), [2,3): t=1.0 only in the second.
            assert [f.tuples for f in frames] == [1, 2, 0]
