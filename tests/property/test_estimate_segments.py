"""One estimate call over many Flatten operators == each operator alone.

``estimate_segments`` is where the estimator rule lives: the engine calls it
once per batch over every chain with rows, of every attribute, reading each
chain's rows where they lie in its attribute's batch, and
``FlattenOperator.flush`` / ``process_batch_mask`` call it with one batch.
Every operator's result — the intensity's bits and the estimator's name —
and every online estimator's state must be what that operator's batch gets
alone, whatever the other operators are, and what the call that first
concatenated every chain's rows (kept here as the oracle) chose.
"""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pmat import FlattenOperator
from repro.core.pmat.flatten import estimate_segments
from repro.geometry import Rectangle
from repro.pointprocess import (
    ConstantIntensity,
    EventBatch,
    LinearIntensity,
    fit_linear_intensity_mle_segments,
    observe_segments,
)
from repro.streams import TupleBatch

#: Operator kinds and the outcome each is built for.
KINDS = {
    "given": "given",
    "warm_online": "online",
    "cold_online": "mle",  # warms up only after its batch: falls back to a fit
    "diverged_online": "mle",  # a NaN theta stays NaN: falls back to a fit
    "too_small": "constant",
    "converged": "mle",
    "not_converged": "constant",  # a corner's events: the centroid is outside their hull
}


def bits(values) -> bytes:
    """Exact float64 identity (NaN == NaN, -0.0 != 0.0)."""
    return np.asarray(values, dtype=float).tobytes()


def build(kind, seed, window_start, batch_duration, cell):
    """One operator of ``kind`` and its batch's ``(t, x, y)``."""
    rng = np.random.default_rng(seed)
    online = kind.endswith("online")
    given = LinearIntensity(50.0, 1.0, 2.0, -3.0) if kind == "given" else None
    flatten = FlattenOperator(
        10.0, region=cell, batch_duration=batch_duration, intensity=given, online=online,
    )
    if window_start is not None:
        flatten.open_window(window_start)
    estimator = flatten._online_estimator
    if kind == "warm_online":
        estimator._updates = 40 + int(rng.integers(0, 100))
        estimator._theta = np.array([30.0, 0.5, -1.0, 2.0]) * rng.random(4)
    elif kind == "diverged_online":
        estimator._updates = 100
        estimator._theta = np.array([np.nan, 0.0, 0.0, 0.0])
    n = {"too_small": int(rng.integers(1, 20)), "cold_online": int(rng.integers(20, 40))}.get(
        kind, int(rng.integers(20, 120))
    )
    extent = 0.3 if kind == "not_converged" else 1.0
    start = 0.0 if window_start is None else window_start
    t = start + rng.random(n) * batch_duration
    if rng.random() < 0.5:
        t = np.sort(t)
    x = cell.x_min + rng.random(n) * extent * cell.width
    y = cell.y_min + rng.random(n) * extent * cell.height
    return flatten, (t, x, y)


def outcome(result):
    """An estimate's bits: the constant rate or the theta, and the name."""
    intensity, name = result
    if isinstance(intensity, ConstantIntensity):
        return bits([intensity.value]), name
    return bits(intensity.theta), name


def state(flatten):
    """An online estimator's theta bits, update count and window average."""
    estimator = flatten._online_estimator
    if estimator is None:
        return None
    return bits(estimator._theta), estimator._updates, bits([estimator._events_in_window])


operator_specs = st.lists(
    st.tuples(
        st.sampled_from(sorted(KINDS)),
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.floats(0.0, 1e4)),
        st.floats(0.25, 4.0),
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([0.5, 1.0, 2.0])),
    ),
    min_size=1,
    max_size=12,
)


def estimate_concatenated(flattens, t, x, y, starts):
    """``estimate_segments`` as it was while the planner concatenated every
    chain's rows: the oracle.

    Verbatim but for its name and this docstring, with its gather
    (``_segment_columns``) inlined and each kernel called over the one
    concatenated batch it then made: operator ``i``'s batch is rows
    ``[starts[i], starts[i + 1])`` of ``t, x, y``.
    """
    edges = [int(start) for start in starts] + [t.shape[0]]

    def segment_columns(chosen):
        if len(chosen) == len(edges) - 1:
            return t, x, y, edges[:-1]
        pieces = [slice(edges[index], edges[index + 1]) for index in chosen]
        starts = list(accumulate((piece.stop - piece.start for piece in pieces[:-1]), initial=0))
        return (*(np.concatenate([column[piece] for piece in pieces]) for column in (t, x, y)), starts)

    def one_batch(t, x, y, starts):
        edges = [*starts, t.shape[0]]
        return [EventBatch(t, x, y)], [(0, a, b) for a, b in zip(edges, edges[1:])]

    online = [
        index for index, flatten in enumerate(flattens)
        if flatten._intensity is None and flatten._online_estimator is not None
    ]
    if online:
        observe_segments(
            [flattens[index]._online_estimator for index in online],
            *one_batch(*segment_columns(online)),
            [flattens[index]._window_start for index in online],
        )

    estimates = []
    fits = []
    windows = []
    for index, flatten in enumerate(flattens):
        if flatten._intensity is not None:
            estimates.append((flatten._intensity, "given"))
            continue
        estimator = flatten._online_estimator
        if estimator is not None and estimator.updates >= 2 * flatten._min_batch_for_fit:
            intensity = estimator.intensity
            if all(math.isfinite(value) for value in intensity.theta):
                estimates.append((intensity, "online"))
                continue
        rows = t[edges[index]:edges[index + 1]]
        t_start = float(rows.min()) if flatten._window_start is None else flatten._window_start
        duration = max(float(rows.max()) - t_start, flatten._batch_duration)
        mean_rate = max(rows.shape[0] / (flatten.region.area * duration), 1e-9)
        estimates.append((ConstantIntensity(mean_rate), "constant"))
        t_end = t_start + duration
        if rows.shape[0] >= flatten._min_batch_for_fit and t_end > t_start:
            fits.append(index)
            windows.append((flatten.region, t_start, t_end))

    if fits:
        solved = fit_linear_intensity_mle_segments(*one_batch(*segment_columns(fits)), windows)
        for index, fit in zip(fits, solved):
            if fit.converged:
                estimates[index] = (fit.intensity, "mle")
    return estimates


def attribute_batches(operators, rng):
    """The operators' rows in two attribute batches, as the map phase lays
    them out: each operator's rows one run of a random batch, after 0-3
    rows no operator reads (a cell without a chain).  Returns the batches
    and the segment table."""
    parts = [([], [], []), ([], [], [])]
    sizes = [0, 0]
    table = []
    for _op, rows in operators:
        b = int(rng.integers(2))
        junk = int(rng.integers(4))
        for part, column in zip(parts[b], rows):
            part.extend((rng.random(junk), column))
        table.append((b, sizes[b] + junk, sizes[b] + junk + len(rows[0])))
        sizes[b] += junk + len(rows[0])
    batches = [EventBatch(*(np.concatenate([np.empty(0), *part]) for part in each)) for each in parts]
    return batches, table


def one(rows):
    """One operator's own batch and its one-entry segment table."""
    return [EventBatch(*rows)], [(0, 0, len(rows[0]))]


@settings(max_examples=60, deadline=None)
@given(operator_specs, st.integers(0, 2**32 - 1))
def test_one_call_equals_each_operator_alone(specs, layout_seed):
    def twins():
        return [
            build(kind, seed, window_start, duration,
                  Rectangle(q * side, r * side, (q + 1) * side, (r + 1) * side))
            for kind, seed, window_start, duration, (q, r, side) in specs
        ]

    together, concatenated, alone = twins(), twins(), twins()
    joint = estimate_segments(
        [op for op, _rows in together], *attribute_batches(together, np.random.default_rng(layout_seed))
    )
    columns = [np.concatenate(column) for column in zip(*(rows for _op, rows in concatenated))]
    starts = np.cumsum([0] + [len(rows[0]) for _op, rows in concatenated[:-1]])
    oracle = estimate_concatenated([op for op, _rows in concatenated], *columns, starts)

    for (op, _rows), (twin, rows), (old, _old_rows), result, expected in zip(
        together, alone, concatenated, joint, oracle
    ):
        [single] = estimate_segments([twin], *one(rows))
        assert outcome(result) == outcome(single) == outcome(expected)
        assert state(op) == state(twin) == state(old)


def test_one_call_carries_every_outcome():
    cell = Rectangle(2.0, 3.0, 3.0, 4.0)
    operators = [build(kind, 11, 5.0, 1.0, cell) for kind in KINDS]
    batches, table = attribute_batches(operators, np.random.default_rng(1))
    assert {b for b, _start, _stop in table} == {0, 1}
    results = estimate_segments([op for op, _rows in operators], batches, table)
    assert [name for _intensity, name in results] == list(KINDS.values())


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_one_batch_paths_are_the_one_segment_call(kind):
    # flush() and process_batch_mask() report what the call chooses alone.
    flatten, (t, x, y) = build(kind, 5, 2.0, 1.0, Rectangle(0.0, 0.0, 1.0, 1.0))
    twin, _rows = build(kind, 5, 2.0, 1.0, Rectangle(0.0, 0.0, 1.0, 1.0))
    n = len(t)
    flatten.process_batch_mask(
        TupleBatch("rain", t, x, y, np.zeros(n), np.zeros(n, dtype=int), np.arange(n))
    )
    [(_intensity, name)] = estimate_segments([twin], *one((t, x, y)))
    assert flatten.reports[-1].estimator == name == KINDS[kind]
    assert state(flatten) == state(twin)
