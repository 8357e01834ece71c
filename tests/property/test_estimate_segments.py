"""One estimate call over many Flatten operators == each operator alone.

``estimate_segments`` is where the estimator rule lives: the engine calls it
once per batch over every chain with rows, of every attribute, and
``FlattenOperator.flush`` / ``process_batch_mask`` call it with one batch.
Every operator's result — the intensity's bits and the estimator's name —
and every online estimator's state must be what that operator's batch gets
alone, whatever the other operators are.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pmat import FlattenOperator
from repro.core.pmat.flatten import estimate_segments
from repro.geometry import Rectangle
from repro.pointprocess import ConstantIntensity, LinearIntensity
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


@settings(max_examples=60, deadline=None)
@given(operator_specs)
def test_one_call_equals_each_operator_alone(specs):
    def twins():
        return [
            build(kind, seed, window_start, duration,
                  Rectangle(q * side, r * side, (q + 1) * side, (r + 1) * side))
            for kind, seed, window_start, duration, (q, r, side) in specs
        ]

    together, alone = twins(), twins()
    columns = [np.concatenate(column) for column in zip(*(rows for _op, rows in together))]
    starts = np.cumsum([0] + [len(rows[0]) for _op, rows in together[:-1]])
    joint = estimate_segments([op for op, _rows in together], *columns, starts)

    for (op, _rows), (twin, rows), result in zip(together, alone, joint):
        [single] = estimate_segments([twin], *rows, [0])
        assert outcome(result) == outcome(single)
        assert state(op) == state(twin)


def test_one_call_carries_every_outcome():
    cell = Rectangle(2.0, 3.0, 3.0, 4.0)
    operators = [build(kind, 11, 5.0, 1.0, cell) for kind in KINDS]
    columns = [np.concatenate(column) for column in zip(*(rows for _op, rows in operators))]
    starts = np.cumsum([0] + [len(rows[0]) for _op, rows in operators[:-1]])
    results = estimate_segments([op for op, _rows in operators], *columns, starts)
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
    [(_intensity, name)] = estimate_segments([twin], t, x, y, [0])
    assert flatten.reports[-1].estimator == name == KINDS[kind]
    assert state(flatten) == state(twin)
