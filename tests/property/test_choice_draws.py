"""The world-stream draws of an acquisition wave == the per-cell loops they replaced.

Every wave chooses its sensors with ``_choose_rows``: one ``rng.choice``
without replacement per covered cell, and one broadcast ``rng.integers``
per maximal run of two or more undersized cells averaging fewer than
``_RUN_DRAW_LIMIT`` draws a cell (any other undersized cell keeps its own
``rng.choice``).  numpy draws that call from the same 32-bit words, in the
same order, as one ``rng.choice(..., replace=True)`` per cell, so both RNG
contracts keep the world stream (and every seeded digest) they had.  A strict wave's request times are
one ``rng.uniform`` call, each cell's slice sorted, where they were one
sorted draw per cell.

The oracles are the per-cell bodies, kept verbatim: ``_per_cell_choices``
(every first wave) and the ``_retry_choices`` loop (every retry wave, its
``self._world.rng`` passed in as ``rng``).  A layout mixes runs of
undersized and covered cells, undersized cells large enough to be drawn
one by one, populations and budgets of 1, budgets equal to the
population, and retry pools whose cells are exhausted, partly
contacted or untouched, with retry sizes of 0.  Rows, ``replacement_used``,
the generator's state and its next draw must all be equal.
"""

from types import SimpleNamespace
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sensing.handler import _RUN_DRAW_LIMIT, _choose_rows, _PerSensorStreams


def per_cell_choices(
    populations: List[np.ndarray], budgets: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The first-wave choice before runs were drawn at once: one ``rng.choice`` per cell."""
    parts = []
    for population, budget in zip(populations, budgets.tolist()):
        parts.append(
            population[
                rng.choice(population.size, size=budget, replace=population.size < budget)
            ]
        )
    return np.concatenate(parts)


def retry_choices(
    populations: List[np.ndarray], contacted: np.ndarray, sizes: np.ndarray, rng
) -> Tuple[np.ndarray, bool]:
    """The retry-wave choice before runs were drawn at once: one draw per cell."""
    parts: List[np.ndarray] = []
    replacement_used = False
    for population, size in zip(populations, sizes.tolist()):
        if not size:
            continue
        fresh = population[~contacted[population]]
        if fresh.size >= size:
            parts.append(fresh[rng.choice(fresh.size, size=size, replace=False)])
        else:
            parts.append(
                population[rng.choice(population.size, size=size, replace=True)]
            )
            replacement_used = True
    return np.concatenate(parts), replacement_used


def per_cell_request_times(sizes, duration, rng, t_start):
    """Strict request times before one draw: one sorted ``rng.uniform`` per cell."""
    return np.concatenate(
        [
            np.sort(rng.uniform(t_start, t_start + duration, size=int(size)))
            for size in sizes
        ]
    )


#: How a cell's population relates to its first-wave budget.
KINDS = ("undersized", "large", "covered", "exact", "single", "unit_budget")


@st.composite
def layouts(draw):
    """``(populations, budgets, seed)``: runs of cells of one kind, 1-80 cells."""
    runs = draw(
        st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 12)), min_size=1, max_size=20)
    )
    kinds = [kind for kind, length in runs for _ in range(length)][:80]
    numbers = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    populations, budgets = [], []
    next_row = int(numbers.integers(0, 5))
    for kind in kinds:
        size = {
            "undersized": int(numbers.integers(1, 16)),
            "large": int(numbers.integers(1, 400)),
            "single": 1,
        }.get(kind, int(numbers.integers(1, 40)))
        budget = {
            "undersized": size + int(numbers.integers(1, 60)),
            # At or around the limit: a run of these is drawn cell by cell,
            # and one mixed with small undersized cells may fall either way.
            "large": int(numbers.integers(_RUN_DRAW_LIMIT - 100, 2 * _RUN_DRAW_LIMIT)),
            "covered": int(numbers.integers(1, size + 1)),
            "exact": size,
            "unit_budget": 1,
        }.get(kind, int(numbers.integers(1, 30)))  # "single": any budget
        populations.append(np.arange(next_row, next_row + size))
        budgets.append(budget)
        next_row += size + int(numbers.integers(0, 4))
    return populations, np.array(budgets, dtype=np.int64), draw(st.integers(0, 2**32 - 1))


def twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_stream(ours, oracle):
    assert ours.bit_generator.state == oracle.bit_generator.state
    assert ours.random() == oracle.random()


class TestFirstWave:
    @settings(max_examples=150, deadline=None)
    @given(layouts())
    def test_rows_and_stream_match_one_choice_per_cell(self, layout):
        populations, budgets, seed = layout
        ours, oracle = twins(seed)
        rows, replacement_used = _choose_rows(populations, budgets, ours)
        expected = per_cell_choices(populations, budgets, oracle)
        assert rows.dtype == expected.dtype
        assert rows.tobytes() == expected.tobytes()
        assert replacement_used == any(
            population.size < budget for population, budget in zip(populations, budgets)
        )
        assert_same_stream(ours, oracle)

    def test_every_kind_of_run(self):
        # Undersized runs at the start, between covered cells and at the
        # end; a one-sensor cell inside a run; an exactly covered cell.
        sizes = [3, 1, 5, 40, 7, 7, 2, 1, 12, 30]
        budgets = np.array([9, 4, 6, 10, 7, 20, 3, 1, 200, 30], dtype=np.int64)
        populations = [np.arange(100 * i, 100 * i + n) for i, n in enumerate(sizes)]
        for seed in range(50):
            ours, oracle = twins(seed)
            rows, replacement_used = _choose_rows(populations, budgets, ours)
            assert rows.tobytes() == per_cell_choices(populations, budgets, oracle).tobytes()
            assert replacement_used
            assert_same_stream(ours, oracle)

    def test_large_and_lone_undersized_cells(self):
        # Between covered cells: a lone undersized cell, a pair (cell by
        # cell), a run of large draws (cell by cell), a run of small ones
        # (one draw), a run whose mean sits at the limit (cell by cell) and
        # one just below it (one draw).
        limit = _RUN_DRAW_LIMIT
        cells = [
            (50, 10), (3, 40), (60, 20),
            (2, 30), (5, 6), (40, 5),
            (500, 1000), (450, 900), (20, 800), (40, 5),
            (2, 30), (4, 9), (1, 5), (40, 5),
            (300, limit), (300, limit), (300, limit), (40, 5),
            (300, limit), (300, limit), (300, limit - 1),
        ]
        populations = [np.arange(1000 * i, 1000 * i + n) for i, (n, _) in enumerate(cells)]
        budgets = np.array([budget for _, budget in cells], dtype=np.int64)
        for seed in range(20):
            ours, oracle = twins(seed)
            rows, _ = _choose_rows(populations, budgets, ours)
            assert rows.tobytes() == per_cell_choices(populations, budgets, oracle).tobytes()
            assert_same_stream(ours, oracle)


@st.composite
def retry_layouts(draw):
    """``(populations, contacted, sizes, seed)`` of a retry wave."""
    populations, _budgets, seed = draw(layouts())
    numbers = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    contacted = np.zeros(int(populations[-1][-1]) + 1, dtype=bool)
    sizes = []
    for population in populations:
        state = draw(st.sampled_from(["fresh", "exhausted", "partly", "skipped"]))
        if state == "exhausted":
            contacted[population] = True
        elif state == "partly":
            contacted[population] = numbers.random(population.size) < 0.5
        size = 0 if state == "skipped" else int(numbers.integers(0, 2 * population.size + 2))
        sizes.append(size)
    if not any(sizes):
        sizes[0] = 1  # the wave loop stops before a retry wave of nothing
    return populations, contacted, np.array(sizes, dtype=np.int64), seed


class TestRetryWave:
    @settings(max_examples=150, deadline=None)
    @given(retry_layouts())
    def test_rows_and_stream_match_one_draw_per_cell(self, layout):
        populations, contacted, sizes, seed = layout
        ours, oracle = twins(seed)
        rows, replacement_used = _choose_rows(populations, sizes, ours, contacted)
        expected, expected_used = retry_choices(populations, contacted, sizes, oracle)
        assert rows.tobytes() == expected.tobytes()
        assert replacement_used == expected_used
        assert_same_stream(ours, oracle)


class TestStrictRequestTimes:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 300), min_size=1, max_size=80),
        st.sampled_from([0.0, 3.0, 1e6 + 0.25]),
        st.sampled_from([1.0, 0.5, 7.25]),
        st.integers(0, 2**32 - 1),
    )
    def test_one_draw_equals_a_sorted_draw_per_cell(self, sizes, now, duration, seed):
        sizes = np.array(sizes, dtype=np.int64)
        ours, oracle = twins(seed)
        times = _PerSensorStreams(SimpleNamespace(rng=ours, now=now)).request_times(
            sizes, duration
        )
        expected = per_cell_request_times(sizes, duration, oracle, now)
        assert times.tobytes() == expected.tobytes()
        assert_same_stream(ours, oracle)
