"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.pmat import PartitionOperator, ThinOperator
from repro.geometry import Grid, Rectangle, RectRegion, union_regions
from repro.pointprocess import EventBatch, flatten_events, thin_events
from repro.pointprocess.intensity import ConstantIntensity, LinearIntensity
from repro.streams import CollectingSink, SensorTuple

# ----------------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------------

coordinates = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
positive_extent = st.floats(min_value=0.1, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def rectangles(draw):
    x_min = draw(coordinates)
    y_min = draw(coordinates)
    width = draw(positive_extent)
    height = draw(positive_extent)
    return Rectangle(x_min, y_min, x_min + width, y_min + height)


@st.composite
def event_batches(draw, max_events=60):
    count = draw(st.integers(min_value=0, max_value=max_events))
    rows = [
        (
            draw(st.floats(min_value=0.0, max_value=10.0)),
            draw(st.floats(min_value=0.0, max_value=1.0)),
            draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        for _ in range(count)
    ]
    return EventBatch.from_rows(rows)


# ----------------------------------------------------------------------------
# Geometry properties
# ----------------------------------------------------------------------------


class TestRectangleProperties:
    @given(rectangles())
    def test_area_is_positive(self, rect):
        assert rect.area > 0.0

    @given(rectangles())
    def test_center_is_inside(self, rect):
        assert rect.contains(rect.center.x, rect.center.y)

    @given(rectangles(), rectangles())
    def test_overlap_is_symmetric_and_bounded(self, a, b):
        overlap_ab = a.overlap_area(b)
        overlap_ba = b.overlap_area(a)
        assert abs(overlap_ab - overlap_ba) < 1e-6 * max(1.0, overlap_ab)
        assert overlap_ab <= min(a.area, b.area) + 1e-9

    @given(rectangles(), rectangles())
    def test_intersection_contained_in_both(self, a, b):
        overlap = a.intersection(b)
        if overlap is not None:
            for rect in (a, b):
                assert rect.x_min <= overlap.x_min and overlap.x_max <= rect.x_max
                assert rect.y_min <= overlap.y_min and overlap.y_max <= rect.y_max

    @given(rectangles(), st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    def test_subdivision_preserves_area(self, rect, nx, ny):
        cells = rect.subdivide(nx, ny)
        assert len(cells) == nx * ny
        assert abs(sum(c.area for c in cells) - rect.area) < 1e-6 * rect.area

    @given(rectangles(), st.integers(min_value=1, max_value=6))
    def test_grid_cells_tile_region(self, rect, side):
        grid = Grid(rect, side)
        assert abs(sum(cell.area for cell in grid.cells()) - rect.area) < 1e-6 * rect.area
        # Every cell centre maps back to its own cell.
        for cell in grid.cells():
            located = grid.locate(cell.rect.center.x, cell.rect.center.y)
            assert located.key == cell.key

    @given(rectangles(), st.integers(min_value=1, max_value=4))
    def test_union_of_grid_cells_recovers_region_area(self, rect, side):
        grid = Grid(rect, side)
        merged = union_regions([cell.region for cell in grid.cells()])
        assert abs(merged.area - rect.area) < 1e-6 * rect.area


# ----------------------------------------------------------------------------
# Thinning / flattening properties
# ----------------------------------------------------------------------------


class TestThinningProperties:
    @given(event_batches(), st.floats(min_value=0.05, max_value=1.0), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_thinning_partitions_the_batch(self, batch, probability, seed):
        result = thin_events(batch, probability, rng=np.random.default_rng(seed))
        assert result.retained_count + len(result.discarded) == len(batch)
        assert result.retained_count == int(result.keep_mask.sum())

    @given(event_batches(max_events=40), st.floats(min_value=1.0, max_value=50.0), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_flatten_probabilities_are_valid(self, batch, target, seed):
        intensity = ConstantIntensity(5.0)
        result = flatten_events(batch, intensity, target, rng=np.random.default_rng(seed))
        assert np.all(result.retain_probability >= 0.0)
        assert np.all(result.retain_probability <= 1.0 + 1e-12)
        assert 0.0 <= result.violation_percent <= 100.0
        assert 0.0 <= result.shortfall_percent <= 100.0
        assert result.retained_count + len(result.discarded) == len(batch)

    @given(event_batches(max_events=40), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_flatten_expected_count_never_exceeds_batch(self, batch, seed):
        intensity = LinearIntensity(2.0, 0.1, 3.0, 1.0)
        result = flatten_events(batch, intensity, 10.0, rng=np.random.default_rng(seed))
        assert result.retained_count <= len(batch)


# ----------------------------------------------------------------------------
# Operator properties
# ----------------------------------------------------------------------------


def tuples_from_batch(batch):
    return [
        SensorTuple(tuple_id=i, attribute="rain", t=float(t), x=float(x), y=float(y))
        for i, (t, x, y) in enumerate(zip(batch.t, batch.x, batch.y))
    ]


class TestOperatorProperties:
    @given(
        event_batches(max_events=50),
        st.floats(min_value=1.0, max_value=99.0),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_thin_operator_conserves_tuples(self, batch, rate_out, seed):
        op = ThinOperator(100.0, rate_out, rng=np.random.default_rng(seed))
        sink = CollectingSink().attach(op.output)
        for item in tuples_from_batch(batch):
            op.accept(item)
        assert len(sink) + op.dropped == len(batch)

    @given(event_batches(max_events=50), st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_partition_operator_conserves_and_separates(self, batch, parts, seed):
        cell = Rectangle(0.0, 0.0, 1.0, 1.0)
        regions = [RectRegion(r) for r in cell.subdivide(parts, 1)]
        op = PartitionOperator(regions, rng=np.random.default_rng(seed))
        sinks = [CollectingSink().attach(op.output_for(i)) for i in range(len(regions))]
        items = tuples_from_batch(batch)
        for item in items:
            op.accept(item)
        routed = sum(len(sink) for sink in sinks)
        assert routed + op.dropped == len(items)
        for region, sink in zip(regions, sinks):
            for item in sink.items:
                assert region.contains(item.x, item.y)
