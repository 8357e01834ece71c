"""The map phase's row order == ``np.lexsort((t, codes))``, and in-order rows are not copied.

``StreamFabricator.map_batches_fused`` hands every attribute's rows to the
chain programs ordered cell code major, time minor, ties in input order,
with a ``(cell key, start, stop)`` table of each occupied cell's rows.  That
order fixes which row takes which draw of every chain's generator, so it is
a byte-identity property like the world-stream draws: the reference here
is ``np.lexsort((t, codes))`` over the grid's cell codes, the order the
per-cell executor in ``tests/plan/test_segmented_program.py`` maps with.

The handler's fused round usually delivers rows in that order already;
such a batch must come back as the very ``TupleBatch`` it was, no column
copied.  Any other batch is sorted: shuffled rows, a retry-style second
wave appended after the first, one cell whose times descend, NaN times in
a cell of several rows (NaN sorts last, and counts as out of order).
Tied times and ``-0.0`` / ``+0.0`` are ties, kept in input order; the
columns are compared as bytes, so a swapped pair of zeros fails.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import QueryPlanner, StreamFabricator
from repro.geometry import Grid, Rectangle
from repro.streams import TupleBatch

REGION = Rectangle(0.0, 0.0, 8.0, 8.0)

#: Times drawn from a small pool so that ties, signed zeros and NaN occur.
TIME_POOL = np.array([-0.0, 0.0, 0.25, 0.25, 0.5, 0.75, 1.0, np.nan])

KINDS = ("in_order", "shuffled", "retry_wave", "descending_cell")


def fabricator(side: int) -> StreamFabricator:
    grid = Grid(REGION, side=side)
    return StreamFabricator(QueryPlanner(grid), grid)


def make_rows(grid: Grid, n: int, rng: np.random.Generator, *, nan: bool, pooled: bool) -> TupleBatch:
    """``n`` rows in random cells, times from the pool or uniform, in random order."""
    width = REGION.width / grid.side
    q = rng.integers(0, grid.side, size=n)
    r = rng.integers(0, grid.side, size=n)
    # Points on a cell's lower edge and inside it; the region's top / right
    # boundary clamps into the last cell.
    x = (q + rng.choice([0.0, 0.5, 0.999], size=n)) * width
    y = (r + rng.choice([0.0, 0.5, 1.0], size=n)) * width
    if pooled:
        pool = TIME_POOL if nan else TIME_POOL[:-1]
        t = rng.choice(pool, size=n)
    else:
        t = rng.uniform(0.0, 1.0, size=n)
    ids = np.arange(n, dtype=np.int64)
    return TupleBatch(
        "rain", t, x, y, rng.uniform(size=n), ids % 7, ids,
        meta={"round": 1},
        extra={"cell": np.stack((q, r), axis=1), "incentive": rng.uniform(size=n)},
    )


def reference(grid: Grid, batch: TupleBatch):
    """The rows in lexsort order and each occupied cell's ``(key, start, stop)``."""
    q, r = grid.cells_for_points(batch.x, batch.y)
    codes = r * grid.side + q
    order = np.lexsort((batch.t, codes))
    ordered = codes[order]
    starts = np.concatenate(([0], np.nonzero(np.diff(ordered))[0] + 1))
    stops = np.append(starts[1:], len(batch))
    segments = [
        ((int(ordered[a]) % grid.side, int(ordered[a]) // grid.side), int(a), int(b))
        for a, b in zip(starts, stops)
    ]
    return batch.select(order), segments, codes


def columns(batch: TupleBatch):
    return [batch.t, batch.x, batch.y, batch.value, batch.sensor_id, batch.tuple_id] + [
        batch.extra[key] for key in sorted(batch.extra)
    ]


def assert_same_rows(got: TupleBatch, want: TupleBatch) -> None:
    assert got.attribute == want.attribute
    assert got.meta == want.meta
    assert sorted(got.extra) == sorted(want.extra)
    for mine, theirs in zip(columns(got), columns(want)):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()


def arrange(batch: TupleBatch, kind: str, grid: Grid, rng: np.random.Generator) -> TupleBatch:
    """Put ``batch``'s rows in the order ``kind`` names."""
    in_order, segments, _codes = reference(grid, batch)
    if kind == "in_order":
        return in_order
    if kind == "shuffled":
        return batch.select(rng.permutation(len(batch)))
    if kind == "retry_wave" and len(batch) > 1:
        # Each wave is in (cell, t) order on its own, as the handler's waves are.
        cut = int(rng.integers(1, len(batch)))
        waves = np.split(np.arange(len(batch)), [cut])
        return TupleBatch.concatenate(reference(grid, batch.select(rows))[0] for rows in waves)
    # descending_cell: one cell's rows in reverse time order.
    order = np.arange(len(batch))
    _key, start, stop = segments[int(rng.integers(0, len(segments)))]
    order[start:stop] = order[start:stop][::-1]
    return in_order.select(order)


def is_lexsorted(batch: TupleBatch, codes: np.ndarray) -> bool:
    return np.array_equal(np.lexsort((batch.t, codes)), np.arange(len(batch)))


def nan_in_shared_cell(batch: TupleBatch, codes: np.ndarray) -> bool:
    """Whether some NaN time shares its cell with another row."""
    counts = np.bincount(codes)
    return bool(np.any(np.isnan(batch.t) & (counts[codes] > 1)))


class TestMapOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        side=st.sampled_from([1, 2, 4, 8]),
        n=st.integers(1, 400),
        kind=st.sampled_from(KINDS),
        nan=st.booleans(),
        pooled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_and_segments_match_lexsort(self, side, n, kind, nan, pooled, seed):
        rng = np.random.default_rng(seed)
        fab = fabricator(side)
        grid = Grid(REGION, side=side)
        batch = arrange(make_rows(grid, n, rng, nan=nan, pooled=pooled), kind, grid, rng)
        want, want_segments, codes = reference(grid, batch)

        (got, segments), = fab.map_batches_fused({"rain": batch}).values()

        assert segments == want_segments
        assert_same_rows(got, want)
        kept = is_lexsorted(batch, codes) and not nan_in_shared_cell(batch, codes)
        assert (got is batch) == kept
        if not kept:
            assert not any(np.shares_memory(a, b) for a, b in zip(columns(got), columns(batch)))

    @settings(max_examples=100, deadline=None)
    @given(side=st.sampled_from([1, 2, 4, 8]), n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_in_order_rows_come_back_uncopied(self, side, n, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(REGION, side=side)
        batch = arrange(make_rows(grid, n, rng, nan=False, pooled=True), "in_order", grid, rng)
        before = columns(batch)

        (got, _segments), = fabricator(side).map_batches_fused({"rain": batch}).values()

        assert got is batch
        assert all(mine is theirs for mine, theirs in zip(columns(got), before))

    def test_signed_zeros_and_ties_keep_input_order(self):
        grid = Grid(REGION, side=2)
        t = np.array([0.0, -0.0, 0.0, 0.5, 0.5, -0.0])
        x = np.array([1.0, 1.0, 1.0, 1.0, 5.0, 5.0])
        ids = np.arange(6, dtype=np.int64)
        batch = TupleBatch("rain", t, x, np.full(6, 1.0), np.zeros(6), ids, ids)
        # Cell (1, 0)'s -0.0 comes after its 0.5: out of order.
        want, want_segments, _codes = reference(grid, batch)

        (got, segments), = fabricator(2).map_batches_fused({"rain": batch}).values()

        assert got is not batch
        assert segments == want_segments == [((0, 0), 0, 4), ((1, 0), 4, 6)]
        assert got.tuple_id.tolist() == [0, 1, 2, 3, 5, 4]
        assert got.t.tobytes() == want.t.tobytes()
        assert np.signbit(got.t).tolist() == [False, True, False, False, True, False]

    def test_single_row(self):
        for t in (0.5, np.nan):
            batch = TupleBatch("rain", [t], [7.0], [0.0], [1.0], [3], [9])
            (got, segments), = fabricator(4).map_batches_fused({"rain": batch}).values()
            assert got is batch
            assert segments == [((3, 0), 0, 1)]

    def test_empty_batches_are_skipped(self):
        assert fabricator(2).map_batches_fused({"rain": TupleBatch.empty("rain")}) == {}
