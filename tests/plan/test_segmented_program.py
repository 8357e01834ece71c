"""Attribute programs vs the per-chain executor they replaced, on the same rows.

The engine runs each attribute's chains as one segmented
:class:`~repro.plan.ChainProgram`.  Before that it ran one program per
(cell, attribute) chain; that executor's body lives on here as the oracle:
the per-cell map (zero-copy views of each attribute's lexsorted rows), then
for every cell in planner order and every chain in the cell the router
accounting, the flatten step (with the one-batch Eq. (3) body that preceded
the segmented kernel, also kept here), the thin cascade and the taps, each
tap delivered the moment it is selected, one chunk per (query, cell).
Two identically seeded planners take the same synthetic rows — one through
``StreamFabricator.process_batch_columnar`` with compiled programs, one
through the oracle — and must agree on every query's delivered rows (the
programs deliver each query's batch as one chunk, which must be the
oracle's per-cell chunks of that query concatenated in emission order,
byte for byte), the ``BatchResult`` (``delivered_per_query``'s order
included), every Flatten report, operator counter, generator state and
online theta, and every discard in order.

The rows are synthetic so the awkward cases are there by construction:
chains with no rows, batches too small to fit (the constant fallback),
skewed cells whose clipped mass needs compensation, rows in cells that
have no chain for their attribute, and rows in cells with no topology.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AcquisitionalQuery, QueryPlanner, StreamFabricator
from repro.core.fabricator import BatchResult
from repro.core.pmat.flatten import FlattenBatchReport, estimate_segments
from repro.errors import PointProcessError
from repro.geometry import Grid, Rectangle
from repro.pointprocess import (
    ConstantIntensity,
    EventBatch,
    LinearIntensity,
    flatten_segments,
)
from repro.pointprocess import thinning
from repro.streams import TupleBatch
from scaffolding import HotspotIntensity, compile_programs

REGION = Rectangle(0.0, 0.0, 8.0, 8.0)
GRID = Grid(REGION, side=8)
BATCHES = 6
PAUSED_DURING = range(2, 4)


def make_queries():
    """64 cells, 10 queries over two attributes; column x in [7, 8] is unqueried."""
    carve = Rectangle(0.5, 0.5, 3.5, 2.5)
    return [
        AcquisitionalQuery("rain", Rectangle(0.0, 0.0, 7.0, 8.0), 6.0),
        AcquisitionalQuery("rain", Rectangle(0.0, 0.0, 4.0, 4.0), 10.0),
        # Same region, same rate: one level, two taps sharing one predicate.
        AcquisitionalQuery("rain", carve, 4.0),
        AcquisitionalQuery("rain", carve, 4.0),
        AcquisitionalQuery("rain", Rectangle(2.5, 2.5, 6.5, 5.5), 5.0),
        AcquisitionalQuery("temp", Rectangle(0.0, 0.0, 7.0, 4.0), 6.0),
        AcquisitionalQuery("temp", Rectangle(1.5, 0.5, 6.5, 3.5), 2.0),
        AcquisitionalQuery("temp", Rectangle(3.0, 3.0, 5.0, 5.0), 8.0),
        AcquisitionalQuery("temp", Rectangle(0.0, 4.0, 2.0, 7.0), 3.0),
        AcquisitionalQuery("temp", Rectangle(4.2, 4.2, 6.8, 6.8), 7.0),
    ]


#: rows a cell receives in one batch: empty, too few to fit, a few dozen, many
CELL_ROWS = (0, 3, 12, 40, 90, 200)


def synthetic_batches(rng, index):
    """One batch window of rows for both attributes over every cell."""
    batches = {}
    next_id = index * 1_000_000
    for attribute in ("rain", "temp"):
        counts = rng.choice(CELL_ROWS, size=64, p=[0.1, 0.1, 0.2, 0.3, 0.2, 0.1])
        cells = rng.permutation(np.repeat(np.arange(64), counts))
        n = cells.shape[0]
        # Cubed offsets skew each cell towards its lower-left corner, so
        # Eq. (3) clips and compensates; rows arrive in no cell or time
        # order, and times on a 1/64 grid tie within a cell.
        x = (cells % 8) + rng.random(n) ** 3
        y = (cells // 8) + rng.random(n) ** 2
        t = index + np.floor(rng.random(n) * 77.0) / 64.0
        batches[attribute] = TupleBatch(
            attribute,
            t,
            x,
            y,
            rng.normal(20.0, 5.0, n),
            rng.integers(0, 500, n),
            np.arange(next_id, next_id + n),
            meta={"round": index},
            extra={"incentive": rng.random(n)},
        )
        next_id += n
    return batches


def given_intensity(number):
    """A fixed intensity per chain: gathered Eq. (1), constant, or evaluated."""
    kind = number % 3
    if kind == 0:
        return LinearIntensity(30.0 + number, 0.5, 6.0, -2.0)
    if kind == 1:
        return ConstantIntensity(15.0 + number)
    return HotspotIntensity(5.0, ((1.0, 1.0, 40.0, 0.6),))


class Side:
    """One planner + fabricator recording deliveries and discards in order."""

    def __init__(self, queries, *, online, given, store_discarded):
        self.deliveries = []
        self.discards = []
        self.planner = QueryPlanner(
            GRID,
            online_estimation=online,
            discard_recorder=self.record_discard if store_discarded else None,
            rng=np.random.default_rng(5),
        )
        self.fabricator = StreamFabricator(self.planner, GRID)
        for query in queries:
            self.planner.insert_query(query, on_result_batch=self.deliver_batch)
        if given:
            for number, flatten in enumerate(self.flattens()):
                flatten._intensity = given_intensity(number)

    def chains(self):
        for key in self.planner.materialized_cells:
            topology = self.planner.cell_topology(key)
            for attribute in topology.attributes:
                yield topology.chain(attribute)

    def flattens(self):
        return [chain.flatten for chain in self.chains()]

    def record_discard(self, operator_name, item):
        self.discards.append((operator_name, item))

    def deliver_batch(self, query_id, batch):
        self.deliveries.append((query_id, len(batch), batch))
        self.fabricator.register_delivery_batch(query_id, len(batch))

    def state(self):
        """Counters, reports, generator states and estimator state."""
        state = {}
        for key in self.planner.materialized_cells:
            topology = self.planner.cell_topology(key)
            for op in topology.stream_topology.operators:
                state[op.name] = (
                    op.tuples_in,
                    op.tuples_out,
                    getattr(op, "dropped", None),
                    op.rng.bit_generator.state if hasattr(op, "rng") else None,
                )
        for chain in self.chains():
            flatten = chain.flatten
            estimator = flatten._online_estimator
            state["reports", flatten.name] = (
                flatten.reports,
                None
                if estimator is None
                else ([v.hex() for v in estimator.theta], estimator.updates),
            )
        for query in self.planner.queries:
            union = self.planner.union_operator(query.query_id)
            state[union.name] = (union.tuples_in, union.tuples_out)
        return state


def batch_bytes(batch):
    """Everything a delivered chunk carries, as comparable bytes."""
    return (
        batch.attribute,
        tuple(
            (column.dtype.str, column.tobytes())
            for column in (
                batch.t, batch.x, batch.y, batch.value, batch.sensor_id, batch.tuple_id
            )
        ),
        tuple(sorted((k, np.asarray(v).tobytes()) for k, v in batch.extra.items())),
        tuple(sorted(batch.meta.items())),
    )


def per_query(deliveries):
    """Each query's chunks, concatenated in emission order, as bytes.

    Queries appear in first-delivery order, the order ``delivered_per_query``
    keeps.
    """
    merged = {}
    for query_id, _rows, batch in deliveries:
        merged.setdefault(query_id, []).append(batch)
    return [
        (query_id, batch_bytes(TupleBatch.concatenate(parts)))
        for query_id, parts in merged.items()
    ]


# ----------------------------------------------------------------------------
# The oracle: the per-(cell, attribute) executor the attribute programs replaced
# ----------------------------------------------------------------------------

def reference_flatten(batch, intensity, target_rate, rng):
    """One batch through Eq. (3): the body before the segmented kernel.

    Returns ``(keep, probability, violation_percent, shortfall_percent)``.
    """
    local_rate = np.asarray(intensity.rate(batch.t, batch.x, batch.y), dtype=float)
    lambda_c = float(np.sum(1.0 / local_rate))
    raw_probability = target_rate / (local_rate * lambda_c)
    violations = raw_probability > 1.0
    violation_percent = 100.0 * float(np.count_nonzero(violations)) / len(batch)
    probability = thinning._compensate_clipping(raw_probability, target_rate)
    expected_retained = float(probability.sum())
    shortfall_percent = 100.0 * max(0.0, target_rate - expected_retained) / target_rate
    keep = rng.random(len(batch)) < probability
    return keep, probability, violation_percent, shortfall_percent


def oracle_flatten(flatten, batch):
    """``FlattenOperator.process_batch_mask`` over :func:`reference_flatten`."""
    if batch.is_empty:
        flatten._reports.append(
            FlattenBatchReport(0, 0, 0.0, 100.0, flatten.target_rate)
        )
        return np.empty(0, dtype=bool)
    n = len(batch)
    flatten._tuples_in += n
    events = EventBatch(batch.t, batch.x, batch.y)
    # Each chain's estimate alone: the engine chooses every chain's at once.
    [(intensity, estimator)] = estimate_segments([flatten], [events], [(0, 0, n)])
    target_expected = flatten.target_rate * flatten.region.area * flatten._batch_duration
    keep, _probability, violation, shortfall = reference_flatten(
        events, intensity, target_expected, flatten.rng
    )
    retained = int(np.count_nonzero(keep))
    flatten._reports.append(
        FlattenBatchReport(n, retained, violation, shortfall, flatten.target_rate, estimator)
    )
    flatten._tuples_out += retained
    if flatten._emit_discarded:
        flatten._push_discarded(batch.select(~keep))
    return keep


def oracle_map(batch_per_attribute):
    """Per-cell zero-copy views of each attribute's (cell, t)-sorted rows."""
    side = GRID.side
    mapped = {}
    for attribute, batch in batch_per_attribute.items():
        if batch.is_empty:
            continue
        q, r = GRID.cells_for_points(batch.x, batch.y)
        codes = r * side + q
        order = np.lexsort((batch.t, codes))
        sorted_codes = codes[order]
        boundaries = np.nonzero(np.diff(sorted_codes))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_codes.shape[0]]))
        sorted_batch = batch.select(order)
        for start, end in zip(starts, ends):
            code = int(sorted_codes[start])
            mapped.setdefault((code % side, code // side), {})[attribute] = TupleBatch(
                sorted_batch.attribute,
                sorted_batch.t[start:end],
                sorted_batch.x[start:end],
                sorted_batch.y[start:end],
                sorted_batch.value[start:end],
                sorted_batch.sensor_id[start:end],
                sorted_batch.tuple_id[start:end],
                meta=sorted_batch.meta,
                extra={k: col[start:end] for k, col in sorted_batch.extra.items()},
            )
    return mapped


def oracle_chain_run(chain, batch, deliver_batch, router_tuples_in):
    """One chain's fused run: flatten, thin cascade, taps, immediate delivery."""
    if batch is None:
        batch = TupleBatch.empty(chain.attribute)
    n = len(batch)
    chain.router.account_batch(router_tuples_in, n)
    indices = np.flatnonzero(oracle_flatten(chain.flatten, batch))
    for level in chain.levels:
        indices = level.thin.thin_indices(indices)
        survivors = int(indices.shape[0])
        level_x = level_y = None
        masks = {}
        for tap in level.taps:
            if tap.partition is None:
                tap_indices = indices
            else:
                if survivors == 0:
                    continue
                if level_x is None:
                    level_x, level_y = batch.x[indices], batch.y[indices]
                signature = tap.partition.mask_signature()
                mask = masks.get(signature)
                if mask is None:
                    mask = tap.partition.primary_mask(level_x, level_y)
                    masks[signature] = mask
                matched = int(np.count_nonzero(mask))
                tap.partition.account_mask(survivors, matched)
                if matched == 0:
                    continue
                tap_indices = indices[mask]
            if tap_indices.shape[0]:
                deliver_batch(tap.query_id, batch.select(tap_indices))


def oracle_batch(side, batch_per_attribute):
    """The parent ``process_batch_columnar``: map, every cell's chains, merge."""
    first_delivery = len(side.deliveries)
    mapped = oracle_map(batch_per_attribute)
    routed = 0
    for key in side.planner.materialized_cells:
        topology = side.planner.cell_topology(key)
        cell_batches = mapped.get(key, {})
        cell_rows = sum(len(batch) for batch in cell_batches.values())
        for attribute in topology.attributes:
            oracle_chain_run(
                topology.chain(attribute),
                cell_batches.get(attribute),
                side.planner._deliver_batch,
                cell_rows,
            )
        routed += cell_rows
    delivered = {}
    for query_id, rows, _chunk in side.deliveries[first_delivery:]:
        delivered[query_id] = delivered.get(query_id, 0) + rows
    return BatchResult(
        tuples_in=sum(len(batch) for batch in batch_per_attribute.values()),
        tuples_routed=routed,
        tuples_delivered=sum(delivered.values()),
        delivered_per_query=delivered,
        violations=side.planner.violations(),
    )


# ----------------------------------------------------------------------------
# Attribute programs == the per-chain executor
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("store_discarded", [False, True], ids=["plain", "discards"])
@pytest.mark.parametrize("mode", ["mle", "online", "given"])
def test_attribute_programs_match_the_per_chain_executor(mode, store_discarded, monkeypatch):
    compensations = []
    compensate = thinning._compensate_clipping

    def counting_compensate(raw, target):
        compensations.append(raw.shape[0])
        return compensate(raw, target)

    monkeypatch.setattr(thinning, "_compensate_clipping", counting_compensate)
    queries = make_queries()
    options = dict(
        online=mode == "online", given=mode == "given", store_discarded=store_discarded
    )
    segmented = Side(queries, **options)
    oracle = Side(queries, **options)
    paused = queries[3].query_id
    rng = np.random.default_rng(2024)

    for index in range(BATCHES):
        for side in (segmented, oracle):
            side.planner.set_paused(paused, index in PAUSED_DURING)
        batches = synthetic_batches(rng, index)
        first = len(segmented.deliveries), len(oracle.deliveries)
        result = segmented.fabricator.process_batch_columnar(
            batches, compile_programs(segmented.planner)
        )
        expected = oracle_batch(oracle, batches)

        assert result == expected
        assert list(result.delivered_per_query) == list(expected.delivered_per_query)
        delivered = segmented.deliveries[first[0]:]
        # One delivery per query per batch, equal to the oracle's chunks.
        assert len({query_id for query_id, _rows, _batch in delivered}) == len(delivered)
        assert per_query(delivered) == per_query(oracle.deliveries[first[1]:])
        assert segmented.state() == oracle.state()
        assert [(name, item.tuple_id) for name, item in segmented.discards] == [
            (name, item.tuple_id) for name, item in oracle.discards
        ]
        assert result.tuples_routed < result.tuples_in  # the unqueried column

    # The awkward cases were all exercised.
    reports = [r for flatten in segmented.flattens() for r in flatten.reports]
    assert any(r.batch_size == 0 for r in reports)
    assert compensations
    estimators = {r.estimator for r in reports if r.batch_size}
    if mode == "given":
        assert estimators == {"given"}
    else:
        assert "constant" in estimators
        assert ("online" if mode == "online" else "mle") in estimators
    delivered_to = {query_id for query_id, _rows, _chunk in segmented.deliveries}
    assert delivered_to == {q.query_id for q in queries}
    assert bool(segmented.discards) == store_discarded
    # Temp rows land in cells whose topology has no temp chain.
    temp = GRID.cells_for_points(batches["temp"].x, batches["temp"].y)
    cells = set(zip(temp[0].tolist(), temp[1].tolist()))
    planner = segmented.planner
    assert any(
        key in planner.materialized_cells
        and "temp" not in planner.cell_topology(key).attributes
        for key in cells
    )


def test_one_program_per_attribute():
    side = Side(make_queries(), online=False, given=False, store_discarded=False)
    programs = compile_programs(side.planner)
    assert sorted(programs) == ["rain", "temp"]
    assert sum(len(p.chains) for p in programs.values()) == len(list(side.chains()))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_intensity_in_one_segment_raises(bad):
    # NaN passed the old ``rate <= 0`` check and an infinite rate made
    # lambda_c infinite; either way the chain delivered nothing and reported
    # a healthy 0% feedback.
    side = Side(make_queries(), online=False, given=True, store_discarded=False)
    batches = synthetic_batches(np.random.default_rng(1), 0)
    rain = batches["rain"]
    q, r = GRID.cells_for_points(rain.x, rain.y)
    occupied = set(zip(q.tolist(), r.tolist()))
    chain = next(c for c in side.chains() if c.attribute == "rain" and c.cell.key in occupied)
    chain.flatten._intensity = LinearIntensity(bad, 0.0, 0.0, 0.0)
    with pytest.raises(PointProcessError, match="finite"):
        side.fabricator.process_batch_columnar(batches, compile_programs(side.planner))


# ----------------------------------------------------------------------------
# The segmented kernel == the one-batch kernel, per segment, bitwise
# ----------------------------------------------------------------------------

#: pairwise summation works in blocks of 8 inside blocks of 128: the edges
segment_lengths = st.one_of(
    st.sampled_from([0, 1, 7, 8, 9, 127, 128, 129]), st.integers(0, 300)
)


@st.composite
def segment_specs(draw):
    length = draw(segment_lengths)
    kind = draw(st.sampled_from(["linear", "constant", "hotspot", "inert"]))
    if kind == "linear":
        theta = draw(st.tuples(*[st.floats(-50.0, 50.0)] * 4))
        intensity = LinearIntensity(*theta)
    elif kind == "constant":
        intensity = ConstantIntensity(draw(st.floats(1e-3, 1e3)))
    elif kind == "hotspot":
        intensity = HotspotIntensity(
            draw(st.floats(0.1, 10.0)), ((0.3, 0.7, draw(st.floats(0.0, 100.0)), 0.2),)
        )
    else:
        intensity = None
    target = draw(st.floats(0.1, 400.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return length, intensity, target, seed


@settings(max_examples=150, deadline=None)
@given(st.lists(segment_specs(), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_segments_equal_the_one_batch_kernel(specs, seed):
    rows = np.random.default_rng(seed)
    total = sum(length for length, *_ in specs)
    t = rows.uniform(0.0, 5.0, total)
    x = rows.random(total)
    y = rows.random(total)
    starts = list(np.cumsum([0] + [length for length, *_ in specs[:-1]]))
    generators = [
        None if intensity is None else np.random.default_rng(s)
        for _length, intensity, _target, s in specs
    ]
    result = flatten_segments(
        t,
        x,
        y,
        starts,
        [intensity for _l, intensity, _t, _s in specs],
        [target for _l, _i, target, _s in specs],
        generators,
    )
    for index, (length, intensity, target, s) in enumerate(specs):
        a, b = starts[index], starts[index] + length
        if intensity is None or length == 0:
            assert not result.keep_mask[a:b].any()
            assert result.retained[index] == 0
            continue
        alone = np.random.default_rng(s)
        keep, probability, violation, shortfall = reference_flatten(
            EventBatch(t[a:b].copy(), x[a:b].copy(), y[a:b].copy()),
            intensity,
            target,
            alone,
        )
        assert probability.tobytes() == result.retain_probability[a:b].tobytes()
        assert np.array_equal(keep, result.keep_mask[a:b])
        assert int(np.count_nonzero(keep)) == result.retained[index]
        assert violation == result.violation_percent[index]
        assert shortfall == result.shortfall_percent[index]
        assert alone.bit_generator.state == generators[index].bit_generator.state


def test_random_out_slices_draw_the_same_stream():
    one, two = np.random.default_rng(7), np.random.default_rng(7)
    buffer = np.zeros(300)
    one.random(out=buffer[100:229])
    assert buffer[100:229].tobytes() == two.random(129).tobytes()
    assert one.bit_generator.state == two.bit_generator.state
